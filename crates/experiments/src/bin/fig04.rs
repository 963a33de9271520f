//! Regenerate Figure 4 (gamma surface and scalability bounds).
fn main() {
    rfid_experiments::artifacts::bin_main(env!("CARGO_BIN_NAME"));
}
