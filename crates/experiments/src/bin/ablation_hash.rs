//! Ablation: XOR-bitget vs full-avalanche tag hashing.
fn main() {
    rfid_experiments::artifacts::bin_main(env!("CARGO_BIN_NAME"));
}
