//! Check the paper's headline claims in one table.
fn main() {
    rfid_experiments::artifacts::bin_main(env!("CARGO_BIN_NAME"));
}
