//! Driver-side resilience policy: per-command deadlines, bounded retries
//! with deterministic exponential backoff, and the failure accounting the
//! fault campaigns assert over.
//!
//! Production control planes lose commands — a flapped link, a stalled
//! PCIe credit loop, a corrupted wire, a dropped completion interrupt.
//! The driver's contract is that every issued command converges to either
//! *acked* or *reported-failed* within a bounded number of attempts, with
//! no panics and no double-applied side effects (idempotency tags let the
//! kernel replay instead of re-execute).

use harmonia_cmd::KernelError;
use harmonia_sim::Picos;
use std::error::Error;
use std::fmt;

/// Retry/timeout policy for one command driver.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Per-command response deadline: if no response (or NACK) arrives
    /// within this window the attempt is a timeout.
    pub deadline_ps: Picos,
    /// Retries after the first attempt; `max_retries = 4` means at most
    /// five transmissions before the driver gives up.
    pub max_retries: u32,
    /// First backoff interval; attempt `n` waits `base << n`, capped at
    /// `RetryPolicy::BACKOFF_CAP_PS`.
    pub backoff_base_ps: Picos,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            deadline_ps: 20_000_000, // 20 µs
            max_retries: 4,
            backoff_base_ps: 1_000_000, // 1 µs
        }
    }
}

impl RetryPolicy {
    /// Upper bound on any single backoff interval (1 ms).
    pub(crate) const BACKOFF_CAP_PS: Picos = 1_000_000_000;

    /// Deterministic exponential backoff before retry `attempt`
    /// (0-based): `base << attempt`, capped. No jitter — reproducibility
    /// is the whole point of the simulated control plane.
    pub(crate) fn backoff_ps(&self, attempt: u32) -> Picos {
        let factor = if attempt >= 63 {
            None
        } else {
            self.backoff_base_ps.checked_mul(1u64 << attempt)
        };
        factor
            .unwrap_or(Self::BACKOFF_CAP_PS)
            .min(Self::BACKOFF_CAP_PS)
    }
}

/// Failure/recovery accounting for one driver, rendered into campaign
/// reports. With no faults injected every command is one attempt:
/// `issued == acked` and everything else stays zero — byte-identical to
/// a driver with no fault plan attached.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DriverReport {
    /// Commands the application asked for (not counting retransmissions).
    pub issued: u64,
    /// Commands that completed with a response.
    pub acked: u64,
    /// Retransmissions performed (any cause).
    pub retries: u64,
    /// Attempts that hit the response deadline (lost command or lost
    /// completion interrupt).
    pub timeouts: u64,
    /// Attempts rejected by the kernel as undecodable (wire corruption).
    pub nacks: u64,
    /// Commands abandoned after the retry budget was exhausted.
    pub gave_up: u64,
}

impl DriverReport {
    /// Every issued command converged: acked or reported failed.
    pub fn converged(&self) -> bool {
        self.issued == self.acked + self.gave_up
    }
}

impl fmt::Display for DriverReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "driver[issued={} acked={} retries={} timeouts={} nacks={} gave-up={}]",
            self.issued, self.acked, self.retries, self.timeouts, self.nacks, self.gave_up
        )
    }
}

/// Driver-level failures (distinct from [`KernelError`]: these are the
/// host's own verdicts, after the retry machinery has run its course).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DriverError {
    /// The kernel reported a non-transient execution error (unknown
    /// module, bad payload, register fault) — retrying cannot help.
    Kernel(KernelError),
    /// The retry budget was exhausted without a response.
    GaveUp {
        /// Target RBB id.
        rbb_id: u8,
        /// Target instance.
        instance_id: u8,
        /// Command code.
        code: u16,
        /// Transmissions performed (first attempt + retries).
        attempts: u32,
        /// The per-attempt deadline that kept expiring.
        deadline_ps: Picos,
    },
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::Kernel(e) => write!(f, "kernel: {e}"),
            DriverError::GaveUp {
                rbb_id,
                instance_id,
                code,
                attempts,
                deadline_ps,
            } => write!(
                f,
                "gave up on command {code:#06x} to rbb {rbb_id}#{instance_id} \
                 after {attempts} attempts ({deadline_ps} ps deadline each)"
            ),
        }
    }
}

impl Error for DriverError {}

impl From<KernelError> for DriverError {
    fn from(e: KernelError) -> Self {
        DriverError::Kernel(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_then_caps() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_ps(0), 1_000_000);
        assert_eq!(p.backoff_ps(1), 2_000_000);
        assert_eq!(p.backoff_ps(3), 8_000_000);
        assert_eq!(p.backoff_ps(63), RetryPolicy::BACKOFF_CAP_PS);
        assert_eq!(p.backoff_ps(200), RetryPolicy::BACKOFF_CAP_PS);
    }

    #[test]
    fn report_convergence_accounting() {
        let mut r = DriverReport::default();
        assert!(r.converged());
        r.issued = 3;
        r.acked = 2;
        assert!(!r.converged());
        r.gave_up = 1;
        assert!(r.converged());
        let s = r.to_string();
        assert!(s.contains("issued=3") && s.contains("gave-up=1"), "{s}");
    }

    #[test]
    fn driver_errors_render() {
        let e = DriverError::GaveUp {
            rbb_id: 1,
            instance_id: 0,
            code: 0x0002,
            attempts: 5,
            deadline_ps: 20_000_000,
        };
        assert!(e.to_string().contains("5 attempts"));
        let k: DriverError = KernelError::BufferFull.into();
        assert!(k.to_string().contains("buffer full"));
    }
}
