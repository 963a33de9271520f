//! Continuous monitoring under churn: level vs differential detectors.
fn main() {
    rfid_experiments::artifacts::bin_main(env!("CARGO_BIN_NAME"));
}
