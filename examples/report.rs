//! Regenerates every experiment table (E1–E8) and prints them — the same rows
//! `lbc experiments` prints.
//!
//! Run with: `cargo run --release --example report`

fn main() {
    for result in local_broadcast_consensus::experiments::all_experiments() {
        println!("{}", result.render_table());
        println!();
    }
}
