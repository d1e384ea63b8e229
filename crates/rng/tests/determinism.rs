//! Cross-run determinism contract for ts3-rng: same seed, same stream —
//! for the raw u64 stream and for every derived sampler. These tests
//! pin concrete values so any accidental change to the stream contract
//! (which would silently invalidate frozen datasets, checkpoints and
//! test expectations across the workspace) fails loudly.

use ts3_rng::rngs::StdRng;
use ts3_rng::{normal_f32, Rng, SeedableRng};

#[test]
fn same_seed_same_u64_stream() {
    let mut a = StdRng::seed_from_u64(0xDEAD_BEEF);
    let mut b = StdRng::seed_from_u64(0xDEAD_BEEF);
    for _ in 0..1024 {
        assert_eq!(a.next_u64(), b.next_u64());
    }
}

#[test]
fn different_seeds_diverge_immediately() {
    // SplitMix64 expansion decorrelates even adjacent seeds.
    let first: Vec<u64> = (0..64)
        .map(|s| StdRng::seed_from_u64(s).next_u64())
        .collect();
    let mut sorted = first.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), 64, "adjacent seeds must give distinct streams");
}

#[test]
fn derived_samplers_are_deterministic() {
    let sample = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        let floats: Vec<f32> = (0..32).map(|_| rng.gen_f32()).collect();
        let ints: Vec<usize> = (0..32).map(|_| rng.gen_range(0..1000usize)).collect();
        let normals: Vec<f32> = (0..32).map(|_| normal_f32(&mut rng)).collect();
        let mut perm: Vec<usize> = (0..16).collect();
        rng.shuffle(&mut perm);
        (floats, ints, normals, perm)
    };
    assert_eq!(sample(11), sample(11));
    assert_ne!(sample(11).0, sample(12).0);
}

#[test]
fn stdrng_stream_is_frozen() {
    // The first three u64s of seed 1, pinned forever. If this test ever
    // fails, the change breaks every frozen seed in the workspace.
    let mut rng = StdRng::seed_from_u64(1);
    let got = [rng.next_u64(), rng.next_u64(), rng.next_u64()];
    assert_eq!(got, [0xCFC5_D07F_6F03_C29B, 0xBF42_4132_963F_E08D, 0x19A3_7D57_57AA_F520]);
}

#[test]
fn f32_unit_draws_cover_the_interval() {
    // Statistical sanity: mean ~0.5, min near 0, max near 1.
    let mut rng = StdRng::seed_from_u64(3);
    let xs: Vec<f32> = (0..100_000).map(|_| rng.gen_f32()).collect();
    let mean = xs.iter().sum::<f32>() / xs.len() as f32;
    assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
    let min = xs.iter().cloned().fold(f32::INFINITY, f32::min);
    let max = xs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    assert!(min < 0.001 && max > 0.999, "range [{min}, {max}]");
}

/// Known answers for every derived draw the workspace makes, at seeds 0
/// and 42. Each sampler starts from a fresh generator, so a changed
/// sampler fails its own line. Floats are compared as bit patterns.
struct Derived {
    seed: u64,
    unit_f32: [u32; 4],
    u32_draw: [u32; 4],
    range_usize: [usize; 4],
    range_u32: [u32; 4],
    range_u64_full: [u64; 4],
    range_u64: [u64; 4],
    range_f32: [u32; 4],
    shuffle: [usize; 10],
    normal: [u32; 4],
}

const DERIVED: [Derived; 2] = [
    Derived {
        seed: 0,
        unit_f32: [0x3EA6_2EBA, 0x3EC3_B4DE, 0x3EB8_1FBE, 0x3C3B_AFC0],
        u32_draw: [0x5317_5D61, 0x61DA_6F3D, 0x5C0F_DF91, 0x02EE_BF8C],
        range_usize: [503, 255, 180, 330],
        range_u32: [223, 7, 252, 26],
        range_u64_full: [
            0x5317_5D61_490B_23DF,
            0x61DA_6F3D_C380_D507,
            0x5C0F_DF91_EC9A_7BFC,
            0x02EE_BF8C_3BBE_5E1A,
        ],
        range_u64: [3, 55, 80, 30],
        range_f32: [0xBEB3_A28C, 0xBE71_2C88, 0xBE8F_C084, 0xBF7A_2282],
        shuffle: [0, 5, 1, 2, 9, 7, 6, 8, 4, 3],
        normal: [0xBF8D_CFF3, 0x3FB6_96F9, 0x3F96_792A, 0x3EA0_7B0B],
    },
    Derived {
        seed: 42,
        unit_f32: [0x3F50_764D, 0x3EA3_3C82, 0x3F7B_E07C, 0x3F33_7D9F],
        u32_draw: [0xD076_4D4F, 0x519E_4174, 0xFBE0_7CFB, 0xB37D_9F60],
        range_usize: [951, 753, 100, 464],
        range_u32: [159, 145, 140, 184],
        range_u64_full: [
            0xD076_4D4F_4476_689F,
            0x519E_4174_576F_3791,
            0xFBE0_7CFB_0C24_ED8C,
            0xB37D_9F60_0CD8_35B8,
        ],
        range_u64: [51, 53, 0, 64],
        range_f32: [0x3F20_EC9A, 0xBEB9_86FC, 0x3F77_C0F8, 0x3ECD_F67C],
        shuffle: [6, 9, 7, 8, 0, 5, 3, 4, 2, 1],
        normal: [0xBE89_86E4, 0xBD5F_13D0, 0xBF14_1D83, 0xBFCD_FEC4],
    },
];

#[test]
fn derived_draws_match_known_answers() {
    for want in &DERIVED {
        let draws = |f: &mut dyn FnMut(&mut StdRng) -> u64| {
            let mut rng = StdRng::seed_from_u64(want.seed);
            (0..4).map(|_| f(&mut rng)).collect::<Vec<u64>>()
        };
        let widen = |xs: &[u32]| xs.iter().map(|&x| u64::from(x)).collect::<Vec<u64>>();
        let seed = want.seed;
        assert_eq!(draws(&mut |r| u64::from(r.gen_f32().to_bits())), widen(&want.unit_f32), "unit f32, seed {seed}");
        assert_eq!(draws(&mut |r| u64::from(r.next_u32())), widen(&want.u32_draw), "u32, seed {seed}");
        let usizes: Vec<u64> = want.range_usize.iter().map(|&x| x as u64).collect();
        assert_eq!(draws(&mut |r| r.gen_range(0..1000usize) as u64), usizes, "usize range, seed {seed}");
        assert_eq!(draws(&mut |r| u64::from(r.gen_range(0..256u32))), widen(&want.range_u32), "u32 range, seed {seed}");
        assert_eq!(draws(&mut |r| r.gen_range(0..u64::MAX)), want.range_u64_full, "full u64 range, seed {seed}");
        assert_eq!(draws(&mut |r| r.gen_range(0u64..100)), want.range_u64, "u64 range, seed {seed}");
        assert_eq!(
            draws(&mut |r| u64::from(r.gen_range(-1.0f32..1.0).to_bits())),
            widen(&want.range_f32),
            "f32 range, seed {seed}"
        );
        assert_eq!(draws(&mut |r| u64::from(normal_f32(r).to_bits())), widen(&want.normal), "normal, seed {seed}");
        let mut perm: Vec<usize> = (0..10).collect();
        StdRng::seed_from_u64(seed).shuffle(&mut perm);
        assert_eq!(perm, want.shuffle, "shuffle, seed {seed}");
    }
}
