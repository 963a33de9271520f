//! Extension: additive (paper) vs geometric probe adjustment.
fn main() {
    rfid_experiments::artifacts::bin_main(env!("CARGO_BIN_NAME"));
}
