//! Extension: tag-side operation counts per scheme.
fn main() {
    rfid_experiments::artifacts::bin_main(env!("CARGO_BIN_NAME"));
}
