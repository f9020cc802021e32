//! Evaluation harness: one module per paper artifact.
//!
//! Every table and figure of the paper's evaluation section has a
//! generator here returning [`Table`](harmonia::metrics::Table)s with the
//! same rows/series the paper reports. The `fig*`/`table*` binaries print
//! them; `paper` prints everything; the testkit benches under `benches/`
//! time the underlying simulations.

pub mod ablation;
pub mod cmdpath;
pub mod fig03;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fleet;
pub mod metrics_run;
pub mod tables;
pub mod tenancy;
pub mod trace_run;

/// One table of the evaluation.
pub type TableFn = fn() -> harmonia::metrics::Table;

/// Every generator of the evaluation, in the paper's order: its module
/// name and its tables (the module's `TABLES`; its `generate` runs them).
pub fn generators() -> [(&'static str, &'static [TableFn]); 12] {
    [
        ("fig03", fig03::TABLES),
        ("fig10", fig10::TABLES),
        ("fig11", fig11::TABLES),
        ("fig12", fig12::TABLES),
        ("fig13", fig13::TABLES),
        ("fig14", fig14::TABLES),
        ("fig15", fig15::TABLES),
        ("fig16", fig16::TABLES),
        ("fig17", fig17::TABLES),
        ("fig18", fig18::TABLES),
        ("tables", tables::TABLES),
        ("ablation", ablation::TABLES),
    ]
}

/// Every table of the evaluation, in the paper's order.
///
/// The tables are independent, so they fan out across threads one table
/// per job ([`harmonia::sim::exec::par_sweep`], the library's only
/// parallel loop); ordered reassembly keeps the output byte-identical to
/// running them one by one.
pub fn all_tables() -> Vec<harmonia::metrics::Table> {
    let jobs = generators().into_iter().flat_map(|(_, tables)| tables);
    harmonia::sim::exec::par_sweep(jobs, |table| table())
}

/// Prints a list of tables with blank lines between them.
///
/// Rendering is a pure per-table job, so it fans out like
/// [`all_tables`]; printing stays sequential and in order.
pub fn print_all(tables: &[harmonia::metrics::Table]) {
    for rendered in harmonia::sim::exec::par_sweep(tables, |t| t.to_string()) {
        println!("{rendered}");
    }
}

/// The five evaluation applications with their per-device role specs.
pub mod roles {
    use harmonia::apps::{App, BoardTest, HostNetwork, Layer4Lb, RetrievalEngine, SecGateway};
    use harmonia::RoleSpec;

    /// `(name, role)` for the five applications, in the paper's order.
    pub fn all() -> Vec<(&'static str, RoleSpec)> {
        vec![
            ("Sec-Gateway", SecGateway::new(crate::roles::allow()).role_spec()),
            ("Layer-4 LB", sample_lb().role_spec()),
            ("Retrieval", RetrievalEngine::synthetic(1, 16, 8).role_spec()),
            ("Board Test", BoardTest::new(1).role_spec()),
            ("Host Network", HostNetwork::new(16).role_spec()),
        ]
    }

    pub(crate) fn allow() -> harmonia::apps::sec_gateway::Action {
        harmonia::apps::sec_gateway::Action::Allow
    }

    pub(crate) fn sample_lb() -> Layer4Lb {
        Layer4Lb::new(
            (0..4)
                .map(|id| harmonia::apps::l4lb::Backend { id, weight: 1 })
                .collect(),
            1024,
        )
    }
}
