//! Regenerate Figure 3 (0s/1s vs n). `--paper` for the full grid.
fn main() {
    rfid_experiments::artifacts::bin_main(env!("CARGO_BIN_NAME"));
}
