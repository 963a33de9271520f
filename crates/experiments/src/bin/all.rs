//! Run every experiment in sequence (quick grids by default, `--paper`
//! for the full evaluation), then write the gnuplot scripts — the
//! one-command reproduction.
fn main() {
    rfid_experiments::artifacts::bin_main(env!("CARGO_BIN_NAME"));
}
