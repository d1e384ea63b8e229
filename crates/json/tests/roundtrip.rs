//! Write → parse round-trip contract, focused on what the workspace
//! actually stores: big arrays of arbitrary f32 bit patterns
//! (checkpoints) and mixed metric records (results emission).

use ts3_json::Json;
use ts3_rng::rngs::StdRng;
use ts3_rng::{normal_f32, Rng, SeedableRng};

#[test]
fn arbitrary_f32s_round_trip_bit_exactly() {
    let mut rng = StdRng::seed_from_u64(2024);
    let mut values: Vec<f32> = (0..2000).map(|_| normal_f32(&mut rng) * 1e3).collect();
    // Adversarial cases: denormals, extremes, exact powers of two.
    values.extend([
        0.0,
        -0.0,
        f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
        1e-40, // subnormal
        std::f32::consts::PI,
        1.0 / 3.0,
    ]);
    values.extend((0..1000).map(|_| f32::from_bits(rng.next_u32() & 0x7F7F_FFFF)));
    let doc = Json::from_iter(values.iter().copied());
    let text = doc.to_string();
    let back = Json::parse(&text).unwrap();
    let got: Vec<f32> = back
        .as_array()
        .unwrap()
        .iter()
        .map(|v| v.as_f32().unwrap())
        .collect();
    assert_eq!(got.len(), values.len());
    for (i, (a, b)) in values.iter().zip(&got).enumerate() {
        assert!(
            a.to_bits() == b.to_bits() || (a == b), // -0.0 == 0.0 tolerated
            "index {i}: {a:?} ({:#x}) came back as {b:?} ({:#x})",
            a.to_bits(),
            b.to_bits()
        );
    }
}

#[test]
fn checkpoint_shaped_document_round_trips() {
    let doc = Json::obj([(
        "params",
        Json::obj([
            (
                "encoder.weight",
                Json::obj([
                    ("shape", Json::from_iter([2usize, 3])),
                    ("data", Json::from_iter([0.1f32, -2.5, 3e-8, 4.0, 5.5, -0.0])),
                ]),
            ),
            (
                "head.bias",
                Json::obj([
                    ("shape", Json::from_iter([2usize])),
                    ("data", Json::from_iter([1.0f32, -1.0])),
                ]),
            ),
        ]),
    )]);
    for text in [doc.to_string(), doc.to_string_pretty()] {
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, doc);
        let params = back.get("params").unwrap().as_object().unwrap();
        assert_eq!(params.len(), 2);
        let w = &params[0].1;
        assert_eq!(
            w.get("shape").unwrap().as_array().unwrap()[1].as_usize(),
            Some(3)
        );
        assert_eq!(
            w.get("data").unwrap().as_array().unwrap()[0].as_f32(),
            Some(0.1)
        );
    }
}
