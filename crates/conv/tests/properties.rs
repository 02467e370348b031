//! Property-based tests for the convolution substrate: every algorithm
//! must agree with the direct reference on arbitrary shapes and data.

use proptest::prelude::*;
use winofuse_conv::cook_toom::WinogradTransform;
use winofuse_conv::fixed::Fix16;
use winofuse_conv::rational::Rational;
use winofuse_conv::tensor::{random_tensor, Tensor};
use winofuse_conv::{direct, im2col, winograd, ConvGeometry};

/// Relative-ish tolerance for Winograd vs direct: inputs are in [-1,1),
/// accumulation depth is bounded by channels·K², so an absolute bound
/// scaled by channel count is safe.
fn tol(channels: usize, k: usize) -> f32 {
    1e-4 * (channels * k * k) as f32 + 1e-4
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn im2col_matches_direct(
        h in 3usize..12,
        w in 3usize..12,
        k in 1usize..4,
        s in 1usize..3,
        pad in 0usize..2,
        in_c in 1usize..4,
        out_c in 1usize..4,
        seed in 0u64..1000,
    ) {
        prop_assume!(k <= h + 2 * pad && k <= w + 2 * pad);
        let geom = ConvGeometry::rect(h, w, k, s, pad).unwrap();
        let x = random_tensor(1, in_c, h, w, seed);
        let kr = random_tensor(out_c, in_c, k, k, seed + 1);
        let a = direct::conv2d(&x, &kr, geom).unwrap();
        let b = im2col::conv2d(&x, &kr, geom).unwrap();
        prop_assert!(a.approx_eq(&b, tol(in_c, k)));
    }

    #[test]
    fn winograd_f43_matches_direct(
        h in 3usize..16,
        w in 3usize..16,
        pad in 0usize..2,
        in_c in 1usize..4,
        out_c in 1usize..4,
        seed in 0u64..1000,
    ) {
        prop_assume!(3 <= h + 2 * pad && 3 <= w + 2 * pad);
        let geom = ConvGeometry::rect(h, w, 3, 1, pad).unwrap();
        let x = random_tensor(1, in_c, h, w, seed);
        let kr = random_tensor(out_c, in_c, 3, 3, seed + 7);
        let a = direct::conv2d(&x, &kr, geom).unwrap();
        let b = winograd::conv2d_f43(&x, &kr, geom).unwrap();
        prop_assert!(
            a.approx_eq(&b, tol(in_c, 3)),
            "max diff {}", a.max_abs_diff(&b).unwrap()
        );
    }

    #[test]
    fn winograd_arbitrary_tile_matches_direct(
        m in 1usize..6,
        r in 2usize..5,
        extra in 0usize..5,
        in_c in 1usize..3,
        seed in 0u64..1000,
    ) {
        let t = match WinogradTransform::generate(m, r) {
            Ok(t) => t,
            Err(_) => return Ok(()),
        };
        let h = r + m + extra; // always large enough for at least one tile
        let geom = ConvGeometry::rect(h, h, r, 1, 0).unwrap();
        let x = random_tensor(1, in_c, h, h, seed);
        let kr = random_tensor(2, in_c, r, r, seed + 13);
        let a = direct::conv2d(&x, &kr, geom).unwrap();
        let b = winograd::conv2d_with(&x, &kr, geom, &t).unwrap();
        prop_assert!(a.approx_eq(&b, tol(in_c, r)));
    }

    #[test]
    fn cook_toom_identity_exact(
        m in 1usize..7,
        r in 1usize..6,
        gseed in -20i128..20,
        dseed in -20i128..20,
    ) {
        let t = match WinogradTransform::generate(m, r) {
            Ok(t) => t,
            Err(_) => return Ok(()),
        };
        let alpha = m + r - 1;
        let g: Vec<Rational> =
            (0..r).map(|i| Rational::new(gseed + i as i128, 1 + (i as i128 % 3))).collect();
        let d: Vec<Rational> =
            (0..alpha).map(|i| Rational::new(dseed - 2 * i as i128, 2 + (i as i128 % 2))).collect();
        let fast = t.apply_1d(&g, &d).unwrap();
        for k in 0..m {
            let mut acc = Rational::ZERO;
            for v in 0..r {
                acc = acc + d[k + v] * g[v];
            }
            prop_assert_eq!(fast[k], acc, "F({},{}) output {}", m, r, k);
        }
    }

    #[test]
    fn fix16_roundtrip_within_half_ulp(v in -127.9f32..127.9) {
        let q = Fix16::from_f32(v);
        prop_assert!((q.to_f32() - v).abs() <= 0.5 / 256.0 + 1e-6);
    }

    #[test]
    fn fix16_conv_tracks_f32(
        h in 3usize..8,
        k in 1usize..4,
        in_c in 1usize..3,
        seed in 0u64..1000,
    ) {
        prop_assume!(k <= h);
        let geom = ConvGeometry::rect(h, h, k, 1, 0).unwrap();
        let x = random_tensor(1, in_c, h, h, seed);
        let kr = random_tensor(1, in_c, k, k, seed + 3);
        let f = direct::conv2d(&x, &kr, geom).unwrap();
        let q = direct::conv2d_fix16(&x.cast(), &kr.cast(), geom).unwrap();
        let qf: Tensor<f32> = q.cast();
        // Quantization error bound: each operand has <= 1/512 error, values
        // bounded by 1, depth = in_c·k².
        let bound = (in_c * k * k) as f32 * (2.0 / 512.0) + 1.0 / 512.0 + 1e-3;
        prop_assert!(f.max_abs_diff(&qf).unwrap() <= bound);
    }

    #[test]
    fn pool_output_is_member_or_mean(
        h in 2usize..8,
        k in 1usize..4,
        s in 1usize..3,
        seed in 0u64..1000,
    ) {
        prop_assume!(k <= h);
        let geom = ConvGeometry::rect(h, h, k, s, 0).unwrap();
        let x = random_tensor(1, 2, h, h, seed);
        let y = winofuse_conv::ops::pool(&x, geom, winofuse_conv::ops::PoolKind::Max).unwrap();
        // Max-pool outputs must be elements of the input.
        for &v in y.as_slice() {
            prop_assert!(x.as_slice().contains(&v));
        }
        let ya = winofuse_conv::ops::pool(&x, geom, winofuse_conv::ops::PoolKind::Average).unwrap();
        let (lo, hi) = x.as_slice().iter().fold((f32::MAX, f32::MIN), |(l, h2), &v| (l.min(v), h2.max(v)));
        for &v in ya.as_slice() {
            prop_assert!(v >= lo - 1e-5 && v <= hi + 1e-5);
        }
    }
}
