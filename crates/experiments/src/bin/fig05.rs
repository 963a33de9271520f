//! Regenerate Figure 5 (f1/f2 monotonicity in n).
fn main() {
    rfid_experiments::artifacts::bin_main(env!("CARGO_BIN_NAME"));
}
