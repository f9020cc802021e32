//! Interrupt moderation for the `irq` unified type.
//!
//! §3.2 carves out a special `irq` type for "latency-intensive signal
//! requirements" that bypasses the register path. On the host side, raw
//! event rates from a 100G NIC (up to ~148 Mpps) would melt any CPU if
//! every event raised an interrupt, so production drivers moderate:
//! coalesce events and fire at most one interrupt per window (or
//! immediately once a batch threshold is reached). This module models that
//! policy and quantifies the interrupt-rate / latency trade-off.
//!
//! The moderator keeps its counts in its [`IrqReport`]; the command
//! driver reads them when it publishes `harmonia_irq_*`.

use harmonia_sim::Picos;

/// Interrupt moderation policy.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct IrqModeration {
    /// Maximum time an event may wait before an interrupt fires.
    pub max_wait_ps: Picos,
    /// Fire immediately once this many events are pending.
    pub batch_threshold: u32,
}

impl IrqModeration {
    /// A typical NIC setting: 50 µs coalescing window, 64-event batches.
    #[cfg(test)]
    fn nic_default() -> Self {
        IrqModeration {
            max_wait_ps: 50_000_000,
            batch_threshold: 64,
        }
    }

    /// No moderation: every event interrupts immediately.
    #[cfg(test)]
    fn immediate() -> Self {
        IrqModeration {
            max_wait_ps: 0,
            batch_threshold: 1,
        }
    }
}

/// Outcome of a moderation simulation.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct IrqReport {
    /// Events processed.
    pub events: u64,
    /// Interrupts raised.
    pub interrupts: u64,
    /// Mean event-to-interrupt delay, ps.
    pub mean_delay_ps: f64,
    /// Maximum event-to-interrupt delay, ps.
    pub max_delay_ps: Picos,
}

impl IrqReport {
    /// Events per interrupt (coalescing factor).
    pub fn coalescing(&self) -> f64 {
        if self.interrupts == 0 {
            0.0
        } else {
            self.events as f64 / self.interrupts as f64
        }
    }
}

/// Stateful interrupt moderator.
#[derive(Debug)]
pub struct IrqModerator {
    policy: IrqModeration,
    pending: u32,
    /// Arrival time of the oldest pending event.
    oldest_ps: Picos,
    events: u64,
    interrupts: u64,
    delay_sum: f64,
    delay_max: Picos,
}

impl IrqModerator {
    /// Creates a moderator with the given policy.
    pub fn new(policy: IrqModeration) -> Self {
        IrqModerator {
            policy,
            pending: 0,
            oldest_ps: 0,
            events: 0,
            interrupts: 0,
            delay_sum: 0.0,
            delay_max: 0,
        }
    }

    fn fire(&mut self, now_ps: Picos) {
        debug_assert!(self.pending > 0);
        self.interrupts += 1;
        let delay = now_ps - self.oldest_ps;
        // All pending events waited at most `delay`; attribute the oldest's
        // wait (the worst case) to the max and the average of a uniform
        // spread to the mean.
        self.delay_sum += delay as f64 / 2.0 * f64::from(self.pending);
        self.delay_max = self.delay_max.max(delay);
        self.pending = 0;
    }

    /// Feeds one event at `now_ps`; returns whether an interrupt fired.
    pub(crate) fn event(&mut self, now_ps: Picos) -> bool {
        // A timer expiry between events fires for the waiting batch first.
        if self.pending > 0 && now_ps >= self.oldest_ps + self.policy.max_wait_ps {
            self.fire(self.oldest_ps + self.policy.max_wait_ps);
        }
        if self.pending == 0 {
            self.oldest_ps = now_ps;
        }
        self.pending += 1;
        self.events += 1;
        if self.pending >= self.policy.batch_threshold {
            self.fire(now_ps);
            return true;
        }
        false
    }

    /// Flushes any pending batch: the coalescing timer fires at
    /// `oldest + max_wait` regardless of when the event stream ends.
    pub(crate) fn flush(&mut self, _now_ps: Picos) {
        if self.pending > 0 {
            self.fire(self.oldest_ps + self.policy.max_wait_ps);
        }
    }

    /// The report so far.
    pub fn report(&self) -> IrqReport {
        IrqReport {
            events: self.events,
            interrupts: self.interrupts,
            mean_delay_ps: if self.events == 0 {
                0.0
            } else {
                self.delay_sum / self.events as f64
            },
            max_delay_ps: self.delay_max,
        }
    }

    /// Absolute time the coalescing timer will fire for the oldest
    /// pending event, or `None` when nothing is pending.
    #[cfg(test)]
    fn timer_deadline_ps(&self) -> Option<Picos> {
        (self.pending > 0).then(|| self.oldest_ps + self.policy.max_wait_ps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_testkit::prelude::*;

    /// Runs a uniform event stream: `count` events `gap_ps` apart.
    fn uniform_stream(policy: IrqModeration, gap_ps: Picos, count: u64) -> IrqReport {
        let mut m = IrqModerator::new(policy);
        for i in 0..count {
            m.event(i * gap_ps);
        }
        m.flush(count * gap_ps);
        m.report()
    }

    fn arb_policy() -> impl Strategy<Value = IrqModeration> {
        (0u64..100_000_000, 1u32..256).prop_map(|(max_wait_ps, batch_threshold)| IrqModeration {
            max_wait_ps,
            batch_threshold,
        })
    }

    #[test]
    fn timer_deadline_is_the_oldest_pending_event_plus_max_wait() {
        let mut m = IrqModerator::new(IrqModeration {
            max_wait_ps: 5_000,
            batch_threshold: 64,
        });
        assert_eq!(m.timer_deadline_ps(), None, "nothing pending, no timer");
        m.event(1_000);
        assert_eq!(m.timer_deadline_ps(), Some(6_000));
        // A later event joins the batch without moving the deadline.
        m.event(3_000);
        assert_eq!(m.timer_deadline_ps(), Some(6_000));
        m.flush(10_000);
        assert_eq!(m.timer_deadline_ps(), None);
    }

    #[test]
    fn empty_report_coalescing_is_zero() {
        // No events, no interrupts: the coalescing factor must be a clean
        // 0.0, not NaN from 0/0 — reports render into committed text.
        let m = IrqModerator::new(IrqModeration::nic_default());
        let r = m.report();
        assert_eq!(r.interrupts, 0);
        assert_eq!(r.coalescing(), 0.0);
        assert!(!r.coalescing().is_nan());
        assert_eq!(r.mean_delay_ps, 0.0);
    }

    #[test]
    fn immediate_policy_interrupts_every_event() {
        let r = uniform_stream(IrqModeration::immediate(), 1_000, 1_000);
        assert_eq!(r.interrupts, 1_000);
        assert_eq!(r.coalescing(), 1.0);
        assert_eq!(r.max_delay_ps, 0);
    }

    #[test]
    fn batching_cuts_interrupt_rate_by_the_threshold() {
        // Events every 1 ns: the 64-batch fills long before 50 µs.
        let r = uniform_stream(IrqModeration::nic_default(), 1_000, 64_000);
        assert_eq!(r.interrupts, 1_000);
        assert_eq!(r.coalescing(), 64.0);
        // Worst wait = 63 ns (first event of each batch).
        assert_eq!(r.max_delay_ps, 63_000);
    }

    #[test]
    fn timer_bounds_latency_for_sparse_events() {
        // One event per 200 µs: batches never fill; the 50 µs timer fires.
        let r = uniform_stream(IrqModeration::nic_default(), 200_000_000, 100);
        assert_eq!(r.interrupts, 100);
        assert_eq!(r.max_delay_ps, 50_000_000);
    }

    #[test]
    fn moderation_tradeoff_is_monotone() {
        // Stronger batching → fewer interrupts, more delay.
        let weak = uniform_stream(
            IrqModeration {
                max_wait_ps: 10_000_000,
                batch_threshold: 8,
            },
            100_000,
            10_000,
        );
        let strong = uniform_stream(
            IrqModeration {
                max_wait_ps: 10_000_000,
                batch_threshold: 128,
            },
            100_000,
            10_000,
        );
        assert!(strong.interrupts < weak.interrupts);
        assert!(strong.mean_delay_ps > weak.mean_delay_ps);
    }

    #[test]
    fn flush_accounts_for_stragglers() {
        let mut m = IrqModerator::new(IrqModeration::nic_default());
        m.event(0);
        m.event(1_000);
        assert_eq!(m.report().interrupts, 0);
        m.flush(2_000);
        let r = m.report();
        assert_eq!(r.interrupts, 1);
        assert_eq!(r.events, 2);
    }

    forall! {
        /// Moderation invariants for any policy and uniform stream: every
        /// event is counted, at most one interrupt per event, no batch grows
        /// past the threshold, and no event waits past the coalescing timer.
        #[test]
        fn irq_moderation_bounds(
            policy in arb_policy(),
            gap_ps in 0u64..10_000_000,
            count in 1u64..2_000,
        ) {
            let r = uniform_stream(policy, gap_ps, count);
            prop_assert_eq!(r.events, count);
            prop_assert!(r.interrupts >= 1, "flushed stream must interrupt");
            prop_assert!(r.interrupts <= r.events);
            prop_assert!(
                r.coalescing() <= f64::from(policy.batch_threshold),
                "coalescing {} exceeds batch threshold {}",
                r.coalescing(), policy.batch_threshold
            );
            prop_assert!(
                r.max_delay_ps <= policy.max_wait_ps,
                "event waited {} ps past the {} ps timer",
                r.max_delay_ps, policy.max_wait_ps
            );
            prop_assert!(r.mean_delay_ps <= r.max_delay_ps as f64);
        }

        /// The no-moderation policy degenerates to one interrupt per event
        /// with zero delay, for any stream.
        #[test]
        fn irq_immediate_policy_is_transparent(gap_ps in 0u64..10_000_000, count in 1u64..2_000) {
            let r = uniform_stream(IrqModeration::immediate(), gap_ps, count);
            prop_assert_eq!(r.interrupts, count);
            prop_assert_eq!(r.max_delay_ps, 0);
            prop_assert_eq!(r.mean_delay_ps, 0.0);
        }

        /// Raising the batch threshold (same timer) never raises the
        /// interrupt count — the Figure-style moderation trade-off direction.
        #[test]
        fn irq_batching_monotone_in_threshold(
            max_wait_ps in 1u64..100_000_000,
            small in 1u32..64,
            extra in 1u32..192,
            gap_ps in 1u64..1_000_000,
            count in 1u64..2_000,
        ) {
            let weak = uniform_stream(
                IrqModeration { max_wait_ps, batch_threshold: small }, gap_ps, count);
            let strong = uniform_stream(
                IrqModeration { max_wait_ps, batch_threshold: small + extra }, gap_ps, count);
            prop_assert!(strong.interrupts <= weak.interrupts,
                "threshold {} raised interrupts over threshold {}", small + extra, small);
        }
    }
}
