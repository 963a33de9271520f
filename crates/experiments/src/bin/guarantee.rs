//! Statistical validation of the (epsilon, delta) guarantee.
fn main() {
    rfid_experiments::artifacts::bin_main(env!("CARGO_BIN_NAME"));
}
