//! Drivers that regenerate every table and figure of the paper.
//!
//! Each `tableN`/`figNN` function reproduces the corresponding exhibit of
//! *"Exploring the Energy-Latency Trade-off for Broadcasts in Energy-Saving
//! Sensor Networks"* (ICDCS 2005) and returns it as a typed
//! [`Table`](pbbf_metrics::Table) or [`Figure`](pbbf_metrics::Figure) with
//! the same axes, legends and rows the paper plots.
//!
//! Every figure function takes an [`Effort`] (paper-scale or a scaled-down
//! `quick` preset for benches/CI) and a seed; results are deterministic
//! per `(effort, seed)`. The [`Experiment`] enum enumerates all exhibits
//! for harnesses that want to run everything.
//!
//! # Examples
//!
//! ```
//! use pbbf_experiments::{fig07, Effort};
//!
//! let fig = fig07(&Effort::quick(), 1);
//! assert_eq!(fig.series.len(), 4); // 80/90/99/100% reliability curves
//! println!("{}", fig.render_text());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod effort;
mod extensions;
mod ideal_figs;
mod net_figs;
mod percolation_figs;
mod registry;
pub mod sweep;
mod tables;
mod tradeoff_fig;

pub use effort::Effort;
pub use extensions::{
    ext_adaptive_convergence, ext_gossip_vs_pbbf, ext_k_tradeoff, ext_latency_tail,
};
pub use ideal_figs::{fig04, fig05, fig08, fig09, fig10, fig11};
pub use net_figs::{fig13, fig14, fig15, fig16, fig17, fig18};
pub use percolation_figs::{fig06, fig07};
pub use registry::{Experiment, Output};
pub use tables::{table1, table2};
pub use tradeoff_fig::fig12;

/// The crate's seed mixer (the splitmix64 finaliser): derives the
/// independent stream `salt` of `seed`. Every sweep point, run and
/// deployment seed of the catalogue comes from it.
pub(crate) fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
