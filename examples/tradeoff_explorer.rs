//! The designer workflow from the paper's conclusion: compute the
//! reliability frontier, then pick operating points under an energy budget
//! or a latency deadline.
//!
//! ```sh
//! cargo run --release --example tradeoff_explorer
//! ```

use pbbf::core::operating_point::Frontier;
use pbbf::prelude::*;

fn main() {
    println!("== Exploring the energy-latency trade-off at 99% reliability ==\n");

    let grid = Grid::square(30);
    let params = AnalysisParams::table1();
    let p_values: Vec<f64> = (1..=10).map(|i| f64::from(i) / 10.0).collect();

    let frontier = Frontier::explore(
        grid.topology(),
        grid.center(),
        &params,
        0.99,
        &p_values,
        150,
        0.02, // safety margin on q
        &SimRng::new(11),
    );

    println!(
        "critical p_edge for 99% reliability on 30x30: {:.3}\n",
        frontier.critical_edge_probability
    );

    let mut t = Table::new([
        "p",
        "q (reliable)",
        "link latency (s)",
        "rel. energy",
        "J/update",
    ]);
    for pt in &frontier.points {
        t.row([
            format!("{:.2}", pt.params.p()),
            format!("{:.3}", pt.params.q()),
            format!("{:.2}", pt.link_latency),
            format!("{:.3}", pt.relative_energy),
            format!("{:.3}", pt.joules_per_update),
        ]);
    }
    println!("{}", t.render());

    // Scenario A: a battery budget — at most 3x the PSM duty cycle.
    let budget = 3.0 * analysis::relative_energy_original(&params.schedule);
    match frontier.fastest_within_energy(budget) {
        Some(pt) => println!(
            "A) fastest point within {budget:.2} relative energy: (p, q) = ({:.2}, {:.3}) at {:.2} s/link",
            pt.params.p(),
            pt.params.q(),
            pt.link_latency
        ),
        None => println!("A) no reliable point fits that budget"),
    }

    // Scenario B: a code-rollout deadline — at most 3 s per link.
    match frontier.cheapest_within_latency(3.0) {
        Some(pt) => println!(
            "B) cheapest point under 3 s/link: (p, q) = ({:.2}, {:.3}) at {:.3} relative energy",
            pt.params.p(),
            pt.params.q(),
            pt.relative_energy
        ),
        None => println!("B) no reliable point meets that deadline"),
    }

    // Scenario C: what the paper's Fig. 12 plots — the frontier itself.
    println!("\nC) Figure-12 frontier (latency s -> J/update):");
    let fig = pbbf::experiments::fig12(&Effort::quick(), 3);
    print!("{}", fig.render_text());
}
