//! The noisy-neighbor tenancy sweep behind the committed `BENCH_tenancy.json`.
//!
//! One weighted victim (weight 4, a fixed closed-loop command stream)
//! shares a single PR slot with `tenants − 1` flooding aggressors
//! (weight 1 each), swept over scheduling policy × tenant count. Each
//! point reports the victim's closed-loop p99 against its solo baseline
//! (same workload, empty machine). The contract the `tenancy_scaling`
//! test pins: **weighted-fair bounds the victim's p99 at ≤ 2× solo**
//! (its weight buys a 4× command budget, so preemption gaps fall below
//! the p99 rank) **while round-robin does not** (the victim waits out
//! every aggressor's full slice, ms-scale gaps landing squarely in its
//! tail). All numbers are simulated and deterministic — the committed
//! `BENCH_tenancy.json` is byte-stable across machines, and the
//! `tenancy_scaling` test checks it byte for byte.

use harmonia::cmd::{CommandCode, UnifiedControlKernel};
use harmonia::host::{DmaEngine, TenantHostDriver};
use harmonia::hw::device::catalog;
use harmonia::hw::ip::PcieDmaIp;
use harmonia::hw::resource::ResourceUsage;
use harmonia::hw::Vendor;
use harmonia::shell::pr::{MultiTenantRegion, TenantRole};
use harmonia::shell::sched::{TenantPolicy, TenantScheduler, DEFAULT_TENANT_SLICE_PS};
use harmonia::{MemoryDemand, RoleSpec, TailoredShell, UnifiedShell};

/// Tenant counts the sweep covers (victim + N−1 aggressors).
pub const TENANTS: [usize; 3] = [2, 4, 8];

/// Closed-loop commands the victim issues per point.
pub(crate) const VICTIM_CMDS: usize = 2000;

/// Commands each aggressor floods (enough to outlast the victim's
/// drain at every point).
pub(crate) const AGGRESSOR_CMDS: usize = 4000;

/// The victim's weight: buys a 4× per-slice command budget under
/// weighted-fair, nothing under round-robin.
pub(crate) const VICTIM_WEIGHT: u64 = 4;

/// One measured (policy, tenants) point of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct TenancyPoint {
    /// Scheduling policy (`rr` / `wfq`).
    pub policy: &'static str,
    /// Total tenants sharing the slot (including the victim).
    pub tenants: usize,
    /// Victim's closed-loop p99 on an empty machine, ps.
    pub victim_solo_p99_ps: u64,
    /// Victim's closed-loop p99 under contention, ps.
    pub victim_p99_ps: u64,
    /// `victim_p99_ps / victim_solo_p99_ps`.
    pub p99_ratio: f64,
    /// Scheduler slices the victim received before draining.
    pub victim_slices: u64,
    /// Tenant switches (PR save/load pairs) over the run.
    pub switches: u64,
    /// Slices cut short by kernel quota enforcement.
    pub quota_exhausted: u64,
    /// Simulated time until the victim drained, ps.
    pub sim_ps: u64,
}

impl TenancyPoint {
    /// The `POLICY/tenants=N` name this point publishes under.
    pub fn name(&self) -> String {
        format!("{}/tenants={}", self.policy, self.tenants)
    }
}

fn driver(policy: TenantPolicy, weights: &[u64]) -> TenantHostDriver {
    let dev = catalog::device_a();
    let unified = UnifiedShell::for_device(&dev);
    let role = RoleSpec::builder("tenancy-bench")
        .network_gbps(100)
        .network_ports(1)
        .memory(MemoryDemand::Ddr { channels: 1 })
        .build();
    let shell = TailoredShell::tailor(&unified, &role).unwrap();
    let region = MultiTenantRegion::partition(&shell, dev.capacity(), 1, 1024);
    let mut sched = TenantScheduler::new(region, 0, policy, DEFAULT_TENANT_SLICE_PS).unwrap();
    let logic = ResourceUsage::new(50_000, 80_000, 100, 20, 100);
    for (i, &w) in weights.iter().enumerate() {
        let name = if i == 0 {
            "victim".to_string()
        } else {
            format!("noisy{i}")
        };
        sched.register(TenantRole::new(name, logic, 8), w).unwrap();
    }
    let mut kernel = UnifiedControlKernel::new(64);
    kernel.attach_shell(shell.rbbs().iter().map(|r| r.as_ref()));
    let (gen, lanes) = dev.pcie().unwrap();
    let engine = DmaEngine::new(PcieDmaIp::new(Vendor::Xilinx, gen, lanes));
    TenantHostDriver::new(sched, engine, kernel)
}

fn health_reads(n: usize) -> Vec<harmonia::host::batch::CmdSpec> {
    (0..n)
        .map(|_| (0u8, 0u8, CommandCode::HealthRead, Vec::new()))
        .collect()
}

/// Runs slices until the victim (tenant 0) drains, returning its p99
/// and the run's accounting.
fn run_victim(d: &mut TenantHostDriver) -> (u64, u64, u64, u64, u64) {
    while d.stats(0).completed < VICTIM_CMDS as u64 {
        if d.run(1) == 0 {
            break;
        }
    }
    assert_eq!(
        d.stats(0).completed,
        VICTIM_CMDS as u64,
        "the victim must drain"
    );
    (
        d.latency(0).p99(),
        d.stats(0).slices,
        d.scheduler().switches(),
        d.quota_hits(),
        d.clock_ps(),
    )
}

/// Runs one sweep point under `policy`.
pub(crate) fn run_point(policy: TenantPolicy, tenants: usize) -> TenancyPoint {
    assert!(tenants >= 2, "a noisy-neighbor point needs an aggressor");
    // Solo baseline: same victim workload, empty machine, same policy.
    let mut solo = driver(policy, &[VICTIM_WEIGHT]);
    solo.enqueue(0, health_reads(VICTIM_CMDS));
    let (victim_solo_p99_ps, ..) = run_victim(&mut solo);

    let mut weights = vec![1u64; tenants];
    weights[0] = VICTIM_WEIGHT;
    let mut d = driver(policy, &weights);
    d.enqueue(0, health_reads(VICTIM_CMDS));
    for t in 1..tenants {
        d.enqueue(t, health_reads(AGGRESSOR_CMDS));
    }
    let (victim_p99_ps, victim_slices, switches, quota_exhausted, sim_ps) = run_victim(&mut d);
    TenancyPoint {
        policy: policy.name(),
        tenants,
        victim_solo_p99_ps,
        victim_p99_ps,
        p99_ratio: victim_p99_ps as f64 / victim_solo_p99_ps as f64,
        victim_slices,
        switches,
        quota_exhausted,
        sim_ps,
    }
}

/// The full policy × tenant-count sweep, in declaration order.
pub fn sweep() -> Vec<TenancyPoint> {
    [TenantPolicy::RoundRobin, TenantPolicy::WeightedFair]
        .iter()
        .flat_map(|&p| TENANTS.iter().map(move |&t| run_point(p, t)))
        .collect()
}

/// Renders the sweep as the `BENCH_tenancy.json` artifact body
/// (hand-rolled, like the other simulated artifacts; byte-stable).
pub fn sweep_json(points: &[TenancyPoint]) -> String {
    let mut out = String::from("{\n  \"group\": \"tenancy\",\n");
    out.push_str("  \"unit\": \"simulated\",\n");
    out.push_str(&format!("  \"victim_cmds_per_point\": {VICTIM_CMDS},\n"));
    out.push_str(&format!("  \"victim_weight\": {VICTIM_WEIGHT},\n"));
    out.push_str("  \"results\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"policy\": \"{}\", \"tenants\": {}, \
             \"victim_solo_p99_ps\": {}, \"victim_p99_ps\": {}, \
             \"p99_ratio\": {:.2}, \"victim_slices\": {}, \
             \"switches\": {}, \"quota_exhausted\": {}, \"sim_ps\": {}}}{}\n",
            p.name(),
            p.policy,
            p.tenants,
            p.victim_solo_p99_ps,
            p.victim_p99_ps,
            p.p99_ratio,
            p.victim_slices,
            p.switches,
            p.quota_exhausted,
            p.sim_ps,
            if i + 1 < points.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrips_ratios() {
        let points = vec![
            run_point(TenantPolicy::RoundRobin, 2),
            run_point(TenantPolicy::WeightedFair, 2),
        ];
        let json = sweep_json(&points);
        for p in &points {
            let got = crate::json_field::<f64>(&json, &p.name(), "p99_ratio").unwrap();
            assert!((got - p.p99_ratio).abs() < 0.01, "{got} vs {p:?}");
        }
        assert_eq!(
            crate::json_field::<f64>(&json, "rr/tenants=9", "p99_ratio"),
            None
        );
    }

    #[test]
    fn points_are_deterministic() {
        assert_eq!(
            run_point(TenantPolicy::WeightedFair, 4),
            run_point(TenantPolicy::WeightedFair, 4)
        );
    }
}
