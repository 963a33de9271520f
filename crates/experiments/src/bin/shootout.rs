//! The full related-work shootout: all ten estimators side by side.
fn main() {
    rfid_experiments::artifacts::bin_main(env!("CARGO_BIN_NAME"));
}
