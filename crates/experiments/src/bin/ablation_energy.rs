//! Extension: per-tag energy (transmission counts) across estimators.
fn main() {
    rfid_experiments::artifacts::bin_main(env!("CARGO_BIN_NAME"));
}
