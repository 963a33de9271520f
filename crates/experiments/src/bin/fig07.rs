//! Regenerate Figure 7 (BFCE accuracy vs n / epsilon / delta).
fn main() {
    rfid_experiments::artifacts::bin_main(env!("CARGO_BIN_NAME"));
}
