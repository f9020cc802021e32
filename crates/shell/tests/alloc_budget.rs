//! Allocation budget for shell construction.
//!
//! A shell costs what it holds: building the unified shell for a device
//! and tailoring a host-linked role onto it must stay under
//! [`BUDGET_BYTES`] of heap, whatever the device. A Host RBB exposes
//! `HostRbb::QUEUES` DMA queues of `HostRbb::QUEUE_DEPTH` entries each;
//! reserving them up front cost over 1 MiB per Host RBB, so the budget
//! fails if that storage is allocated before it is used.
//! Likewise a queue's activation and first entry must not reserve the
//! queue's depth.
//!
//! The counting allocator is process-wide, so this binary holds exactly
//! one test; counting is further limited to the measuring thread.

use harmonia_hw::device::catalog;
use harmonia_hw::Vendor;
use harmonia_shell::rbb::HostRbb;
use harmonia_shell::{RoleSpec, TailoredShell, UnifiedShell};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

/// Heap bytes one `for_device` + `tailor` may request in total.
const BUDGET_BYTES: usize = 64 * 1024;

struct Counting;

thread_local! {
    /// Bytes requested on this thread while counting, or `None` when off.
    static REQUESTED: Cell<Option<usize>> = const { Cell::new(None) };
}

fn charge(bytes: usize) {
    // `try_with` keeps allocations during thread teardown safe.
    let _ = REQUESTED.try_with(|r| {
        if let Some(n) = r.get() {
            r.set(Some(n + bytes));
        }
    });
}

// SAFETY: every call forwards unchanged to `System`; the counter only
// observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        charge(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap bytes `f` requests on this thread (every `realloc` counts its
/// full new size, so growth is charged generously).
fn requested_by<R>(f: impl FnOnce() -> R) -> usize {
    REQUESTED.with(|r| r.set(Some(0)));
    black_box(f());
    REQUESTED
        .with(|r| r.replace(None))
        .expect("counting was on")
}

#[test]
fn shells_allocate_only_what_they_hold() {
    let role = RoleSpec::builder("host-only").build();
    assert!(role.host_link());
    for device in catalog::all() {
        let bytes = requested_by(|| {
            let unified = UnifiedShell::for_device(&device);
            let tailored = TailoredShell::tailor(&unified, &role).expect("host role fits");
            (unified, tailored)
        });
        assert!(
            bytes < BUDGET_BYTES,
            "{}: unified + tailored shell requested {bytes} B, budget {BUDGET_BYTES} B",
            device.name()
        );
    }

    let mut host = HostRbb::with_link(Vendor::Xilinx, 4, 8);
    let bytes = requested_by(|| {
        host.activate(0).unwrap();
        host.enqueue(0, 64).unwrap();
    });
    let depth_bytes = HostRbb::QUEUE_DEPTH * std::mem::size_of::<u32>();
    assert!(
        bytes < depth_bytes,
        "activating a queue and its first entry requested {bytes} B, \
         a full queue holds {depth_bytes} B"
    );
}
