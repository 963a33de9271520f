//! Regenerate Figure 9 (accuracy comparison BFCE/ZOE/SRC on T2).
fn main() {
    rfid_experiments::artifacts::bin_main(env!("CARGO_BIN_NAME"));
}
