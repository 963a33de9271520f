//! Regenerate Figure 6 (the T1/T2/T3 tag-ID distributions).
fn main() {
    rfid_experiments::artifacts::bin_main(env!("CARGO_BIN_NAME"));
}
