//! Multi-tenancy through partial reconfiguration (§6, Discussion): PR
//! slots over the role region, per-tenant queue isolation, and live tenant
//! swap with realistic reconfiguration time.
//!
//! ```sh
//! cargo run --example multi_tenant
//! ```

use harmonia::hw::device::catalog;
use harmonia::hw::resource::ResourceUsage;
use harmonia::shell::pr::{MultiTenantRegion, TenantRole};
use harmonia::shell::{RoleSpec, TailoredShell, UnifiedShell};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Provider side: a multi-tenant base shell on Device A.
    let device = catalog::device_a();
    let unified = UnifiedShell::for_device(&device);
    let base = RoleSpec::builder("mt-base").network_gbps(100).build();
    let shell = TailoredShell::tailor(&unified, &base)?;

    // Split the remaining fabric into 4 PR slots, 1024 queues to share.
    let mut region = MultiTenantRegion::partition(&shell, device.capacity(), 4, 1024);
    let cap = *region.slots()[0].capacity();
    println!(
        "role region: 4 PR slots of {} LUTs / {} BRAM each",
        cap.lut, cap.bram
    );

    // Three tenants arrive with different footprints and queue needs.
    let tenants = [
        TenantRole::new(
            "ml-inference",
            ResourceUsage::new(90_000, 140_000, 200, 40, 800),
            256,
        ),
        TenantRole::new(
            "packet-capture",
            ResourceUsage::new(40_000, 60_000, 80, 0, 0),
            64,
        ),
        TenantRole::new(
            "kv-cache",
            ResourceUsage::new(70_000, 100_000, 180, 40, 0),
            128,
        ),
    ];
    for (slot, tenant) in tenants.into_iter().enumerate() {
        let name = tenant.name.clone();
        let load = region.deploy(slot, tenant)?;
        println!(
            "slot {slot}: '{}' deployed in {:.2} ms, queues {:?}",
            name,
            load as f64 / 1e9,
            region.queue_range(slot).expect("deployed")
        );
    }
    assert!(region.queues_disjoint());
    println!(
        "occupied {}/4 slots, {} queues still free, isolation verified",
        region.occupied(),
        region.free_queues()
    );

    // A tenant rolls a new version: live swap on slot 1 while the shell
    // and the other tenants keep running.
    let v2 = TenantRole::new(
        "packet-capture-v2",
        ResourceUsage::new(45_000, 66_000, 90, 0, 0),
        64,
    );
    let (evicted, load) = region.swap(1, v2)?;
    println!(
        "swapped '{}' out of slot 1 in {:.2} ms (total PR time so far {:.2} ms)",
        evicted.name,
        load as f64 / 1e9,
        region.total_reconfig_ps() as f64 / 1e9
    );

    // An oversized tenant is rejected with the slot untouched.
    let whale = TenantRole::new("whale", ResourceUsage::new(2_000_000, 1, 0, 0, 0), 16);
    match region.deploy(3, whale) {
        Err(e) => println!("whale rejected as expected: {e}"),
        Ok(_) => unreachable!("whale cannot fit"),
    }
    Ok(())
}
