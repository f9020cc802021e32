//! Baseline shell resource footprints (Figure 18a).
//!
//! Commercial and open-source shells are monolithic: one static region
//! carries every service whether or not the application uses it, plus the
//! framework's own runtime plumbing (XRT/OFS/Coyote services). This model
//! derives each baseline's footprint from Harmonia's *unified* shell for
//! the same device — which carries the same functional modules — plus a
//! framework-specific monolithic overhead, while Harmonia itself deploys
//! the *tailored* shell. The 3.5–14.9 % saving of Figure 18a is then the
//! tailoring win plus the avoided runtime plumbing.

use crate::baseline::Framework;
use harmonia_hw::device::FpgaDevice;
use harmonia_hw::resource::ResourceUsage;
use harmonia_shell::{RoleSpec, TailorError, TailoredShell, UnifiedShell};

/// Monolithic-runtime overhead factors per framework, in percent of the
/// functional shell (static-region plumbing, built-in interconnect,
/// mandatory profiling/debug infrastructure).
fn monolith_overhead_percent(framework: Framework) -> u64 {
    match framework {
        Framework::Vitis => 9,  // XRT static region + profiling monitors
        Framework::OneApi => 7, // OFS FIM services
        Framework::Coyote => 4, // lean research shell, but undropable services
        Framework::Harmonia => 0,
    }
}

/// The shell resources a framework spends on a device for a given role.
///
/// # Errors
///
/// Returns the tailoring error when the role cannot be deployed at all
/// (Harmonia path), or `Ok(None)` when the baseline simply does not support
/// the device (Table 3).
pub fn baseline_shell_resources(
    framework: Framework,
    device: &FpgaDevice,
    role: &RoleSpec,
) -> Result<Option<ResourceUsage>, TailorError> {
    if !framework.supports(device) {
        return Ok(None);
    }
    let unified = UnifiedShell::for_device(device);
    let usage = match framework {
        Framework::Harmonia => TailoredShell::tailor(&unified, role)?.resources(),
        baseline => {
            let base = unified.resources();
            let pct = monolith_overhead_percent(baseline);
            ResourceUsage::new(
                base.lut * (100 + pct) / 100,
                base.reg * (100 + pct) / 100,
                base.bram * (100 + pct) / 100,
                base.uram,
                base.dsp,
            )
        }
    };
    Ok(Some(usage))
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_hw::device::catalog;
    use harmonia_hw::ResourceKind;
    use harmonia_shell::MemoryDemand;

    fn bench_role() -> RoleSpec {
        RoleSpec::builder("benchmark")
            .network_gbps(100)
            .memory(MemoryDemand::Ddr { channels: 1 })
            .build()
    }

    #[test]
    fn harmonia_saves_in_fig18a_band_vs_vitis_and_coyote() {
        let dev = catalog::device_a();
        let role = bench_role();
        let h = baseline_shell_resources(Framework::Harmonia, &dev, &role)
            .unwrap()
            .unwrap();
        for f in [Framework::Vitis, Framework::Coyote] {
            let b = baseline_shell_resources(f, &dev, &role).unwrap().unwrap();
            let saving = 100.0 * (1.0 - h.lut as f64 / b.lut as f64);
            assert!(
                (3.5..=35.0).contains(&saving),
                "{f}: saving {saving:.1}% out of band"
            );
        }
    }

    #[test]
    fn harmonia_saves_vs_oneapi_on_device_d() {
        let dev = catalog::device_d();
        let role = bench_role();
        let h = baseline_shell_resources(Framework::Harmonia, &dev, &role)
            .unwrap()
            .unwrap();
        let o = baseline_shell_resources(Framework::OneApi, &dev, &role)
            .unwrap()
            .unwrap();
        for kind in [ResourceKind::Lut, ResourceKind::Reg, ResourceKind::Bram] {
            assert!(
                h.get(kind) < o.get(kind),
                "{kind}: harmonia {} >= oneAPI {}",
                h.get(kind),
                o.get(kind)
            );
        }
    }

    #[test]
    fn unsupported_devices_yield_none() {
        let role = bench_role();
        assert_eq!(
            baseline_shell_resources(Framework::Vitis, &catalog::device_d(), &role).unwrap(),
            None
        );
        assert_eq!(
            baseline_shell_resources(Framework::OneApi, &catalog::device_b(), &role).unwrap(),
            None
        );
    }

    #[test]
    fn tailoring_failure_propagates() {
        let role = RoleSpec::builder("x").memory(MemoryDemand::Hbm).build();
        let err = baseline_shell_resources(Framework::Harmonia, &catalog::device_c(), &role);
        assert!(err.is_err());
    }
}
