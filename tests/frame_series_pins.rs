//! Pinned reports of the seven frame-series estimators: UPE, EZB, ART,
//! MLE, A³, FNEB and SRC.
//!
//! Each of them runs one rough LOF frame, then a series of rounds sized
//! from `(ε, δ)`, and inverts the series' statistic. Every report in a
//! small grid is folded into one `u64`: the estimate's bits, every
//! [`AirTime`] field of the total and of each phase, the round count,
//! the phase names and the warnings, verbatim. The digests are pinned,
//! so any change to an RNG draw, a ledger charge, a sensing call, a
//! sizing rule, an inversion or a warning's text shows as a drift.
//!
//! The grid: n ∈ {0, 5 000, 20 000} on T1 and T2 at (0.1, 0.1) and
//! (0.05, 0.05), plus every fault class at n = 5 000, built as the fault
//! matrix builds it. No cell with n > 0 reaches a budget cap; at n = 0,
//! A³ runs to its round cap, since an empty population never adds the
//! information its stopping rule waits for.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rfid_bfce_repro::experiments::robustness::FaultClass;
use rfid_bfce_repro::hash::stream_seed;
use rfid_bfce_repro::prelude::*;
use rfid_bfce_repro::sim::AirTime;
use rfid_cli::commands::make_estimator;

/// One cell of the grid.
struct Cell {
    label: String,
    n: usize,
    build: Box<dyn Fn(u64) -> RfidSystem>,
    accuracy: Accuracy,
}

fn cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for workload in [WorkloadSpec::T1, WorkloadSpec::T2] {
        for n in [0usize, 5_000, 20_000] {
            for (epsilon, delta) in [(0.1, 0.1), (0.05, 0.05)] {
                cells.push(Cell {
                    label: format!("{} n={n} ({epsilon}, {delta})", workload.name()),
                    n,
                    build: Box::new(move |seed| {
                        let mut world = StdRng::seed_from_u64(stream_seed(seed, 0));
                        RfidSystem::new(workload.generate(n, &mut world))
                    }),
                    accuracy: Accuracy::new(epsilon, delta),
                });
            }
        }
    }
    for &class in FaultClass::all() {
        cells.push(Cell {
            label: format!("{} n=5000", class.name()),
            n: 5_000,
            build: Box::new(move |seed| class.build_system(5_000, 0.5, seed)),
            accuracy: Accuracy::paper_default(),
        });
    }
    cells
}

/// FNV-1a over the report's observable fields.
struct Digest(u64);

impl Digest {
    fn u64(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for byte in s.bytes() {
            self.u64(u64::from(byte));
        }
    }

    fn air(&mut self, air: &AirTime) {
        for x in [air.reader_us, air.tag_us, air.gap_us] {
            self.u64(x.to_bits());
        }
        for x in [
            air.reader_messages,
            air.reader_bits,
            air.bitslots,
            air.aloha_slots,
            air.gaps,
            air.tag_responses,
        ] {
            self.u64(x);
        }
    }
}

fn digest(report: &EstimationReport) -> u64 {
    let mut d = Digest(0xCBF2_9CE4_8422_2325);
    d.u64(report.n_hat.to_bits());
    d.air(&report.air);
    d.u64(report.rounds);
    d.u64(report.phases.len() as u64);
    for phase in &report.phases {
        d.str(&phase.name);
        d.air(&phase.air);
    }
    d.u64(report.warnings.len() as u64);
    for warning in &report.warnings {
        d.str(warning);
    }
    d.0
}

/// The pinned digests: one row per estimator (CLI name), one column per
/// [`cells`] entry, in order.
#[rustfmt::skip]
const PINNED: [(&str, [u64; 19]); 7] = [
    ("upe", [
        16916538789638746611, 12022202775236127574, 7945924040581921436, 17696994722864530558,
        2767599716055815478, 14784448961373367337, 16916538789638746611, 12022202775236127574,
        927995430874654928, 10497543368171352070, 4618756484829749682, 1304098227687887979,
        9478775297711190076, 15200784884921183628, 6941102514141016323, 1001601360469376395,
        638576939964288315, 11472341880655118924, 11288682535935982136,
    ]),
    ("ezb", [
        12964304153006663483, 1107219251924292142, 10817243506001644221, 6997839075193044808,
        14877492114723911607, 4852895186346204596, 12964304153006663483, 1107219251924292142,
        12457750771025731682, 13756916865294356016, 1366071285642424460, 10258018128254238753,
        4942531398602676338, 5698597147660711234, 2356392917837562506, 18133782558976507133,
        3368054027773176176, 1368333425288207221, 9551806841725037675,
    ]),
    ("art", [
        15962981618498740589, 6998874457018340475, 12911322432033293826, 5626243553341818282,
        11192278903379525706, 11844554871984066457, 15962981618498740589, 6998874457018340475,
        2529736180730216861, 3547432300057816461, 15308277770756250293, 13451369737163770460,
        7727455627179654300, 4741607119611616130, 13808139633954397896, 17612069423038247811,
        4474385059100606734, 11336149643218463405, 17374575074324193155,
    ]),
    ("mle", [
        10349575955200660999, 17273584805957230401, 17795906483997017535, 13531241143493105632,
        16266711903363768804, 17264437533455489973, 10349575955200660999, 17273584805957230401,
        7688902649224113888, 13069951835588463104, 11574635331995404547, 8444887125935345794,
        1140235616937745275, 476028131652397371, 472327931962028496, 17809267664536247199,
        7170242318946603425, 15203753376164142867, 889596471284748889,
    ]),
    ("a3", [
        17184487211593533003, 17184487211593533003, 15523622986094523201, 6186878744557397351,
        17224336814661114858, 15718900170638938431, 17184487211593533003, 17184487211593533003,
        7674341436192584980, 531844959943270952, 18211254590311826942, 7305934127647587757,
        7112060622141193749, 11861387985195546875, 7238505350152420948, 10390316609850037221,
        11924031121502977196, 8723337799374700234, 17511966424871610818,
    ]),
    ("fneb", [
        16203492072731734490, 12014611880908301826, 9568931546992814064, 13690540163213458756,
        861109740689854885, 7224244718556688204, 16203492072731734490, 12014611880908301826,
        10722480976926028307, 2930671572664267228, 1338657228536271130, 4962535317190493802,
        5079088785825789527, 710046013174538196, 12074448098672582049, 10397622715531786875,
        2891218058753602210, 12347851430384521843, 15028345707222148556,
    ]),
    ("src", [
        17108966469731826107, 11210724275670228832, 1911080346024991279, 2641856252265669334,
        14956928576731880110, 7812041906867589206, 17108966469731826107, 11210724275670228832,
        7488702095391043193, 4845470130764634498, 3064213564429423864, 18265548378854638614,
        17415874618446305388, 1953655072705684768, 5915997116995494307, 17354630269531752177,
        2641856252265669334, 1292083476568245250, 2173522485586891053,
    ]),
];

#[test]
fn frame_series_reports_match_their_pins() {
    let cells = cells();
    let mut drifts = Vec::new();
    let mut computed = Vec::new();
    for (row, (name, pins)) in PINNED.iter().enumerate() {
        let est = make_estimator(name).expect("registered estimator");
        let mut digests = Vec::new();
        for (col, cell) in cells.iter().enumerate() {
            let seed = stream_seed(0xF5A3_E5E5, (row as u64) << 8 | col as u64);
            let mut system = (cell.build)(seed);
            system.set_noise_seed(seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let report = est.estimate(&mut system, cell.accuracy, &mut rng);
            if cell.n > 0 {
                assert!(
                    report.warnings.iter().all(|w| !w.contains("capped")),
                    "{name} {}: a paper-grid cell reached a budget cap: {:?}",
                    cell.label,
                    report.warnings
                );
            }
            let got = digest(&report);
            if got != pins[col] {
                drifts.push(format!(
                    "{name} {}: pinned {}, got {got}",
                    cell.label, pins[col]
                ));
            }
            digests.push(got);
        }
        computed.push(format!("    (\"{name}\", {digests:?}),"));
    }
    assert!(
        drifts.is_empty(),
        "{} report digests drifted:\n{}\ncomputed table:\n{}",
        drifts.len(),
        drifts.join("\n"),
        computed.join("\n")
    );
}
