//! Regenerate Figure 8 (CDF of 100 estimation rounds).
fn main() {
    rfid_experiments::artifacts::bin_main(env!("CARGO_BIN_NAME"));
}
