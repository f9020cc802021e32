//! Vendor adapters: deployment-dependency management.
//!
//! §3.2: "Harmonia incorporates the built-in handler to structure the
//! vendor dependencies of each module as a series of key-value pairs and
//! performs rigid inspections to ensure compatibility during deployment.
//! The key defines vendor-specific attributes such as CAD tools, IP
//! catalogs, etc. The values are specified with independent version numbers
//! to simplify dependency checks."

use harmonia_hw::Vendor;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// A semantic-ish version `major.minor.patch`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Version {
    /// Major component; must match exactly in dependency checks.
    pub major: u32,
    /// Minor component; the environment must provide at least this.
    pub minor: u32,
    /// Patch component; informational.
    pub patch: u32,
}

impl Version {
    /// Creates a version.
    pub fn new(major: u32, minor: u32, patch: u32) -> Self {
        Version {
            major,
            minor,
            patch,
        }
    }

    /// Whether an environment providing `self` satisfies a module that
    /// requires `required`: same major, minor at least as new.
    pub fn satisfies(&self, required: &Version) -> bool {
        self.major == required.major && (self.minor, self.patch) >= (required.minor, required.patch)
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}.{}", self.major, self.minor, self.patch)
    }
}

/// Error parsing a version string.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ParseVersionError;

impl fmt::Display for ParseVersionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("version must look like MAJOR.MINOR[.PATCH]")
    }
}

impl Error for ParseVersionError {}

impl FromStr for Version {
    type Err = ParseVersionError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split('.');
        let major = parts
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or(ParseVersionError)?;
        let minor = parts
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or(ParseVersionError)?;
        let patch = match parts.next() {
            None => 0,
            Some(p) => p.parse().map_err(|_| ParseVersionError)?,
        };
        if parts.next().is_some() {
            return Err(ParseVersionError);
        }
        Ok(Version::new(major, minor, patch))
    }
}

/// The dependency declaration of one module: key → required version.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ModuleDeps {
    module: String,
    requires: BTreeMap<String, Version>,
}

impl ModuleDeps {
    /// Creates an empty declaration for the named module.
    pub fn new(module: impl Into<String>) -> Self {
        ModuleDeps {
            module: module.into(),
            requires: BTreeMap::new(),
        }
    }

    /// Adds a requirement.
    pub fn require(mut self, key: impl Into<String>, version: Version) -> Self {
        self.requires.insert(key.into(), version);
        self
    }

    /// The module name.
    pub(crate) fn module(&self) -> &str {
        &self.module
    }

    /// Iterates requirements.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&str, &Version)> + '_ {
        self.requires.iter().map(|(k, v)| (k.as_str(), v))
    }
}

/// A compatibility violation found during rigid inspection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompatError {
    /// A required key is absent from the environment.
    Missing {
        /// Requiring module.
        module: String,
        /// Absent dependency key.
        key: String,
        /// Version the module wanted.
        required: Version,
    },
    /// The environment's version does not satisfy the requirement.
    VersionMismatch {
        /// Requiring module.
        module: String,
        /// Dependency key.
        key: String,
        /// Version the module wanted.
        required: Version,
        /// Version the environment provides.
        provided: Version,
    },
}

impl fmt::Display for CompatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompatError::Missing {
                module,
                key,
                required,
            } => write!(f, "{module}: dependency '{key}' {required} not installed"),
            CompatError::VersionMismatch {
                module,
                key,
                required,
                provided,
            } => write!(
                f,
                "{module}: '{key}' requires {required}, environment has {provided}"
            ),
        }
    }
}

impl Error for CompatError {}

/// A vendor adapter: the key-value dependency store for one vendor's
/// deployment flow, plus the rigid inspection.
#[derive(Clone, Debug)]
pub struct VendorAdapter {
    /// The deployment environment: the tool/IP versions installed.
    provides: BTreeMap<String, Version>,
}

impl VendorAdapter {
    /// Generates the default adapter for a vendor: CAD tool, IP catalog and
    /// packaging-format entries with the versions the production flow pins.
    pub fn generate(vendor: Vendor) -> Self {
        let mut provides = BTreeMap::new();
        match vendor {
            Vendor::Xilinx | Vendor::InHouse => {
                provides.insert("vivado".into(), Version::new(2023, 2, 0));
                provides.insert("ip-catalog".into(), Version::new(4, 1, 0));
                provides.insert("ip-xact".into(), Version::new(1, 685, 0));
                provides.insert("board-files".into(), Version::new(1, 3, 0));
            }
            Vendor::Intel => {
                provides.insert("quartus".into(), Version::new(23, 4, 0));
                provides.insert("ip-catalog".into(), Version::new(23, 4, 0));
                provides.insert("qsys".into(), Version::new(23, 4, 0));
                provides.insert("board-files".into(), Version::new(2, 0, 0));
            }
        }
        VendorAdapter { provides }
    }

    /// Rigidly inspects a set of module dependency declarations against
    /// this adapter's environment (§3.2's "rigid inspections to ensure
    /// compatibility during deployment").
    ///
    /// # Errors
    ///
    /// Returns every violation across all modules.
    pub fn inspect(&self, modules: &[ModuleDeps]) -> Result<(), Vec<CompatError>> {
        let mut errors = Vec::new();
        for m in modules {
            for (key, required) in m.iter() {
                match self.provides.get(key) {
                    None => errors.push(CompatError::Missing {
                        module: m.module().to_string(),
                        key: key.to_string(),
                        required: *required,
                    }),
                    Some(provided) if !provided.satisfies(required) => {
                        errors.push(CompatError::VersionMismatch {
                            module: m.module().to_string(),
                            key: key.to_string(),
                            required: *required,
                            provided: *provided,
                        });
                    }
                    Some(_) => {}
                }
            }
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_parse_and_display() {
        let v: Version = "2023.2.1".parse().unwrap();
        assert_eq!(v, Version::new(2023, 2, 1));
        assert_eq!(v.to_string(), "2023.2.1");
        assert_eq!("23.4".parse::<Version>().unwrap(), Version::new(23, 4, 0));
        assert!("nope".parse::<Version>().is_err());
        assert!("1.2.3.4".parse::<Version>().is_err());
    }

    #[test]
    fn satisfaction_rules() {
        let env = Version::new(2023, 2, 0);
        assert!(env.satisfies(&Version::new(2023, 1, 0)));
        assert!(env.satisfies(&Version::new(2023, 2, 0)));
        assert!(!env.satisfies(&Version::new(2023, 3, 0)));
        assert!(!env.satisfies(&Version::new(2022, 0, 0))); // major must match
    }

    #[test]
    fn compatible_module_passes_inspection() {
        let adapter = VendorAdapter::generate(Vendor::Xilinx);
        let deps = ModuleDeps::new("qdma")
            .require("vivado", Version::new(2023, 1, 0))
            .require("ip-catalog", Version::new(4, 0, 0));
        assert!(adapter.inspect(&[deps]).is_ok());
    }

    #[test]
    fn missing_dependency_detected() {
        let adapter = VendorAdapter::generate(Vendor::Intel);
        // A Xilinx-packaged module deployed into a Quartus environment —
        // the §3.2 example of a compatibility issue caught by inspection.
        let deps = ModuleDeps::new("xilinx-dma").require("vivado", Version::new(2023, 2, 0));
        let errs = adapter.inspect(&[deps]).unwrap_err();
        assert!(matches!(errs[0], CompatError::Missing { .. }));
        assert!(errs[0].to_string().contains("vivado"));
    }

    #[test]
    fn version_mismatch_detected() {
        let adapter = VendorAdapter::generate(Vendor::Xilinx);
        let deps = ModuleDeps::new("new-ip").require("vivado", Version::new(2024, 1, 0));
        let errs = adapter.inspect(&[deps]).unwrap_err();
        assert!(matches!(errs[0], CompatError::VersionMismatch { .. }));
    }

    #[test]
    fn all_violations_reported() {
        let adapter = VendorAdapter::generate(Vendor::Intel);
        let deps = [
            ModuleDeps::new("a").require("vivado", Version::new(2023, 2, 0)),
            ModuleDeps::new("b").require("quartus", Version::new(24, 1, 0)),
        ];
        let errs = adapter.inspect(&deps).unwrap_err();
        assert_eq!(errs.len(), 2);
    }

    #[test]
    fn vendor_environments_differ() {
        let vivado = [ModuleDeps::new("m").require("vivado", Version::new(2023, 0, 0))];
        let quartus = [ModuleDeps::new("m").require("quartus", Version::new(23, 0, 0))];
        let x = VendorAdapter::generate(Vendor::Xilinx);
        let i = VendorAdapter::generate(Vendor::Intel);
        assert!(x.inspect(&vivado).is_ok());
        assert!(i.inspect(&vivado).is_err());
        assert!(i.inspect(&quartus).is_ok());
    }
}
