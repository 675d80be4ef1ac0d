//! The Section-5 realistic PBBF simulator.
//!
//! Where the idealized simulator of `pbbf-ideal-sim` assumes a perfect
//! MAC, this crate reproduces the paper's ns-2 study: a full discrete-event
//! node stack with
//!
//! * random node deployments at a target density Δ (Eq. 13, Table 2),
//! * a CSMA/CA broadcast MAC (carrier sensing + random backoff, no
//!   acknowledgments) over the collision channel of `pbbf-radio`,
//! * IEEE 802.11 PSM beacon intervals and ATIM windows with PBBF's `p`/`q`
//!   decisions from `pbbf-core` via `pbbf-mac`,
//! * the code-distribution application: a random source node generates
//!   updates deterministically at rate λ; every data packet carries the
//!   `k` most recent updates the sender knows,
//! * per-node energy metering with the Mica2 power profile.
//!
//! Collisions, hidden terminals, lost ATIMs and sleeping receivers all
//! happen here — the point of Section 5 is that PBBF's trends survive
//! them.
//!
//! # Examples
//!
//! ```
//! use pbbf_net_sim::{NetConfig, NetSim};
//! use pbbf_core::PbbfParams;
//!
//! let mut cfg = NetConfig::table2();
//! cfg.duration_secs = 100.0; // keep the doctest fast: one update, ample time
//! let sim = NetSim::new(cfg, pbbf_net_sim::NetMode::SleepScheduled(PbbfParams::PSM));
//! let stats = sim.run(7);
//! assert_eq!(stats.updates_generated(), 1);
//! // PSM is reliable: virtually every node gets the update.
//! assert!(stats.mean_delivery_ratio() > 0.9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod active;
mod config;
mod deploy;
mod runner;
mod stats;

pub use active::ActiveSet;
pub use config::{BoundaryEngine, NetConfig, NetMode};
pub use deploy::{CachedDeployment, DeploymentCache};
pub use pbbf_parallel::CacheStats;
pub use runner::NetSim;
pub use stats::NetRunStats;
