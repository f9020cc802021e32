//! Regenerates every table and figure of the evaluation in one run.
//!
//! The twelve generators run concurrently (`harmonia_bench::all_tables`,
//! the workspace's only parallel loop); ordered reassembly makes the
//! output byte-identical to running them one by one.
fn main() {
    harmonia_bench::print_all(&harmonia_bench::all_tables());
}
