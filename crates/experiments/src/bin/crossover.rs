//! Extension: exact Q-inventory vs BFCE estimation across cardinalities.
fn main() {
    rfid_experiments::artifacts::bin_main(env!("CARGO_BIN_NAME"));
}
