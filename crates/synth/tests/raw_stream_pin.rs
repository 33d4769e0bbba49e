//! Sample-level bit pins of both trace streams.
//!
//! The fleet golden digests see only aggregates (scores over slot
//! means), so a synthesis refactor that moves one sample by an ulp can
//! hide behind them. This test hashes the raw `f64` bits of every
//! generated sample, every `SlotStream` slot and the synthesis counters,
//! on both stream versions, over configurations chosen to exercise
//! every branch of the day body: all six paper sites at their own
//! resolution, turbidity, a cloudiness tilt, the Kasten–Czeplak
//! envelope, the southern hemisphere, polar night and midnight sun at
//! ±80°, horizons crossing day 365, and a stream resumed from a
//! mid-horizon checkpoint.

use solar_synth::{
    ClearSkyModel, Site, SiteConfig, SiteConfigBuilder, StreamVersion, SynthCounters,
    TraceGenerator, WeatherModel,
};
use solar_trace::hash::fnv1a_bytes;
use solar_trace::SlotsPerDay;

/// Raw-bit accumulator for one case.
#[derive(Default)]
struct Bits(Vec<u8>);

impl Bits {
    fn f64(&mut self, value: f64) {
        self.0.extend_from_slice(&value.to_bits().to_le_bytes());
    }

    fn counters(&mut self, counters: SynthCounters) {
        self.0
            .extend_from_slice(&counters.keystream_blocks.to_le_bytes());
        self.0
            .extend_from_slice(&counters.normal_draws.to_le_bytes());
    }
}

fn with_version(mut config: SiteConfig, version: StreamVersion) -> SiteConfig {
    config.weather.stream_version = version;
    config
}

/// Hashes the batch samples and the slot stream at `n` slots per day of
/// one `(config, seed, days)` generation, each followed by the
/// stream's counter reading (the batch path draws exactly what the
/// stream draws, which the crate's unit tests check).
fn generation_digest(config: SiteConfig, seed: u64, days: usize, n: u32) -> u64 {
    let generator = TraceGenerator::new(config, seed);
    let trace = generator.generate_days(days).unwrap();
    let mut stream = generator
        .slot_stream(days, SlotsPerDay::new(n).unwrap())
        .unwrap();
    let slots: Vec<_> = stream.by_ref().collect();
    let counters = stream.counters();
    let mut bits = Bits::default();
    for &sample in trace.samples() {
        bits.f64(sample);
    }
    bits.counters(counters);
    for slot in &slots {
        bits.f64(slot.start_sample);
        bits.f64(slot.mean_power);
    }
    bits.counters(counters);
    fnv1a_bytes(&bits.0)
}

/// Hashes the tail of a stream resumed from the checkpoint a drained
/// `prefix_days` stream leaves behind, plus the tail's own counters.
fn resumed_digest(config: SiteConfig, seed: u64, prefix_days: usize, total_days: usize) -> u64 {
    let generator = TraceGenerator::new(config, seed);
    let n = SlotsPerDay::new(48).unwrap();
    let mut prefix = generator.slot_stream(prefix_days, n).unwrap();
    for _ in prefix.by_ref() {}
    let checkpoint = prefix
        .checkpoint()
        .expect("drained stream is at a boundary");
    let mut bits = Bits::default();
    let mut tail = generator
        .slot_stream_from(checkpoint, total_days, n)
        .unwrap();
    for slot in tail.by_ref() {
        bits.f64(slot.start_sample);
        bits.f64(slot.mean_power);
    }
    bits.counters(tail.counters());
    fnv1a_bytes(&bits.0)
}

fn shaped(name: &str) -> SiteConfigBuilder {
    SiteConfigBuilder::new(name).weather(WeatherModel::temperate())
}

/// Every pinned case: a label and its digest on the current code.
fn cases(version: StreamVersion) -> Vec<(String, u64)> {
    let v = |config: SiteConfig| with_version(config, version);
    let mut out = Vec::new();
    for site in Site::ALL {
        out.push((
            format!("site {site}"),
            generation_digest(v(site.config()), 7, 3, 48),
        ));
    }
    let shaped_cases: [(&str, SiteConfig, u64, usize); 6] = [
        (
            "turbid",
            shaped("turbid").turbidity(0.35).build().unwrap(),
            1,
            4,
        ),
        (
            "overcast tilt",
            shaped("overcast").cloudiness(3.0).build().unwrap(),
            1,
            4,
        ),
        (
            "clear tilt, Kasten-Czeplak",
            shaped("kasten")
                .cloudiness(0.4)
                .clear_sky(ClearSkyModel::KastenCzeplak)
                .build()
                .unwrap(),
            1,
            4,
        ),
        (
            "southern hemisphere, monsoon",
            shaped("darwin")
                .latitude_deg(-12.4)
                .weather(WeatherModel::monsoon())
                .build()
                .unwrap(),
            1,
            4,
        ),
        // 368 days from day 1 spans polar night, midnight sun and the
        // wrap from day 365 back to day 1.
        (
            "+80, arctic, across the year",
            shaped("svalbard")
                .latitude_deg(80.0)
                .weather(WeatherModel::arctic())
                .build()
                .unwrap(),
            1,
            368,
        ),
        (
            "-80, across the year",
            shaped("antarctic").latitude_deg(-80.0).build().unwrap(),
            1,
            368,
        ),
    ];
    for (label, config, seed, days) in shaped_cases {
        out.push((
            label.to_string(),
            generation_digest(v(config), seed, days, 24),
        ));
    }
    out.push((
        "HSU resumed at day 3 of 7".to_string(),
        resumed_digest(v(Site::Hsu.config()), 5, 3, 7),
    ));
    out.push((
        "SPMD resumed at day 362 of 369".to_string(),
        resumed_digest(v(Site::Spmd.config()), 11, 362, 369),
    ));
    out
}

fn assert_pinned(version: StreamVersion, pins: &[u64]) {
    let actual = cases(version);
    let report: Vec<String> = actual
        .iter()
        .map(|(label, digest)| format!("{digest:#018x}, // {label}"))
        .collect();
    assert_eq!(
        actual.iter().map(|(_, digest)| *digest).collect::<Vec<_>>(),
        pins,
        "{version:?} raw-stream digests moved; now:\n{}",
        report.join("\n")
    );
}

#[test]
fn v1_raw_stream_is_pinned_to_the_bit() {
    assert_pinned(
        StreamVersion::V1,
        &[
            0x93c2_330d_e5b4_7f6d, // site SPMD
            0xb36e_0bc2_e82c_cf31, // site ECSU
            0xa7de_21c1_089f_1d32, // site ORNL
            0x643d_ee99_965c_eec7, // site HSU
            0xb039_0c7f_2962_6d02, // site NPCS
            0xcbd9_49b5_d319_bdf4, // site PFCI
            0xa101_e1b6_a85c_650a, // turbid
            0x1162_aee2_d6a0_ef85, // overcast tilt
            0xc804_5bd7_d66d_e1dd, // clear tilt, Kasten-Czeplak
            0x4270_a4ad_da12_f08c, // southern hemisphere, monsoon
            0x4e3c_10bc_7bf8_1b2b, // +80, arctic, across the year
            0xc11b_9cc2_929d_5496, // -80, across the year
            0x948f_b834_1f1f_3837, // HSU resumed at day 3 of 7
            0xef2c_a2ad_974b_9b47, // SPMD resumed at day 362 of 369
        ],
    );
}

#[test]
fn v2_raw_stream_is_pinned_to_the_bit() {
    assert_pinned(
        StreamVersion::V2,
        &[
            0xce1d_2c70_30cf_4193, // site SPMD
            0x5905_95d9_f068_3486, // site ECSU
            0xf693_dc9c_531a_de4c, // site ORNL
            0x6d48_fef7_6bd2_5dd5, // site HSU
            0xbc06_67a2_e9e0_5a53, // site NPCS
            0x51d2_beb5_6875_bdde, // site PFCI
            0x962f_1db7_9ee9_1a3f, // turbid
            0xd71e_8873_26bd_c98a, // overcast tilt
            0x0b61_1056_3d50_ecb6, // clear tilt, Kasten-Czeplak
            0xd334_65e1_cd2a_af22, // southern hemisphere, monsoon
            0xa633_3233_b5d6_5198, // +80, arctic, across the year
            0x5cc7_407d_45ec_638c, // -80, across the year
            0x5858_ed7b_55f4_fc7f, // HSU resumed at day 3 of 7
            0x5d74_ccea_084b_8dac, // SPMD resumed at day 362 of 369
        ],
    );
}
