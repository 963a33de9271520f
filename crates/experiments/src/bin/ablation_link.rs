//! Ablation: PHY link profile (Tari / BLF / Miller).
fn main() {
    rfid_experiments::artifacts::bin_main(env!("CARGO_BIN_NAME"));
}
