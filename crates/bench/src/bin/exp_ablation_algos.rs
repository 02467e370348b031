//! **Ablation: convolution algorithm arithmetic complexity** — §1 of the
//! paper lists the computation structures available for convolutional
//! layers: the conventional approach, matrix multiplication, FFT, and
//! Winograd. This experiment tabulates real multiplication counts per
//! (input-channel, output-channel) plane pair for every convolutional
//! layer of the evaluated networks, showing why the framework explores
//! conventional + Winograd and not FFT: CNN kernels are too small for
//! FFT to amortize.

use winofuse_bench::banner;
use winofuse_conv::cook_toom::WinogradTransform;
use winofuse_conv::ConvGeometry;
use winofuse_model::layer::LayerKind;
use winofuse_model::network::Network;
use winofuse_model::zoo;

/// Real multiplications of FFT convolution for one (input channel, output
/// channel) plane pair: `3 · P·P·log₂(P·P) + 4·P·P` (three 2-D transforms
/// amortized + the pointwise product, 4 real mults per complex one),
/// where `P` is the padded power-of-two size.
fn fft_conv_multiplies(geom: ConvGeometry) -> u64 {
    let ph = (geom.height() + geom.kernel() - 1).next_power_of_two() as u64;
    let pw = (geom.width() + geom.kernel() - 1).next_power_of_two() as u64;
    let n = ph * pw;
    let log = (64 - n.leading_zeros() - 1) as u64;
    3 * n * log + 4 * n
}

fn wino_multiplies(geom: ConvGeometry, m: usize) -> Option<u64> {
    let t = WinogradTransform::generate(m, geom.kernel()).ok()?;
    if geom.stride() != 1 {
        return None;
    }
    let tiles_h = geom.output_height().div_ceil(m) as u64;
    let tiles_w = geom.output_width().div_ceil(m) as u64;
    Some(tiles_h * tiles_w * t.multiplies_2d() as u64)
}

fn print_network(net: &Network) {
    println!("\n=== {} ===", net.name());
    println!(
        "{:<12} {:>9} {:>6} {:>14} {:>14} {:>14} {:>10}",
        "layer", "fmap", "K/S", "direct", "winograd F4", "fft", "best"
    );
    let shapes = net.shapes().expect("validated network");
    for (i, layer) in net.layers().iter().enumerate() {
        let LayerKind::Conv(c) = &layer.kind else {
            continue;
        };
        let input = shapes[i];
        let geom = ConvGeometry::rect(input.height, input.width, c.kernel, c.stride, c.pad)
            .expect("validated geometry");
        let direct = geom.macs_per_channel_pair();
        let wino = wino_multiplies(geom, 4);
        let fft = fft_conv_multiplies(geom);
        let best = [
            ("direct", Some(direct)),
            ("winograd", wino),
            ("fft", Some(fft)),
        ]
        .iter()
        .filter_map(|(n, v)| v.map(|v| (*n, v)))
        .min_by_key(|(_, v)| *v)
        .map(|(n, _)| n)
        .unwrap_or("-");
        println!(
            "{:<12} {:>9} {:>3}/{:<2} {:>14} {:>14} {:>14} {:>10}",
            layer.name,
            format!("{}x{}", input.height, input.width),
            c.kernel,
            c.stride,
            direct,
            wino.map(|v| v.to_string()).unwrap_or_else(|| "-".into()),
            fft,
            best
        );
    }
}

fn main() {
    banner(
        "Ablation",
        "real multiplications per channel pair: direct vs winograd vs fft",
        None,
    );
    print_network(&zoo::vgg_e_fused_prefix());
    print_network(&zoo::alexnet().conv_body().expect("alexnet body"));

    // Paper-shape assertions: winograd wins on every 3x3/s1 layer; FFT
    // never wins on these CNN kernel sizes.
    let net = zoo::vgg_e_fused_prefix();
    let shapes = net.shapes().unwrap();
    for (i, layer) in net.layers().iter().enumerate() {
        let LayerKind::Conv(c) = &layer.kind else {
            continue;
        };
        let input = shapes[i];
        let geom =
            ConvGeometry::rect(input.height, input.width, c.kernel, c.stride, c.pad).unwrap();
        let direct = geom.macs_per_channel_pair();
        let fft = fft_conv_multiplies(geom);
        assert!(
            fft > direct / 4,
            "fft should not dominate on {}",
            layer.name
        );
        if let Some(w) = wino_multiplies(geom, 4) {
            assert!(w < direct, "winograd must beat direct on {}", layer.name);
            assert!(w < fft, "winograd must beat fft on {}", layer.name);
        }
    }
    println!("\nwinograd F(4x4,3x3) dominates on every stride-1 small-kernel layer;");
    println!("fft never amortizes at CNN kernel sizes — matching the paper's choice");
    println!("to explore {{conventional, winograd}} only.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complexity_crossover() {
        // For 3x3 kernels on 224-wide maps, FFT needs *more* multiplies
        // per plane pair than direct (that's why the paper's framework
        // explores winograd instead); for large kernels it wins.
        let small_k = ConvGeometry::new(56, 56, 3, 1, 1).unwrap();
        let direct_small = small_k.macs_per_channel_pair();
        assert!(fft_conv_multiplies(small_k) > direct_small);

        // Large kernel on a large map (the power-of-two padding must not
        // dominate): 11x11 on 100x100 pads to 128x128.
        let big_k = ConvGeometry::new(100, 100, 11, 1, 5).unwrap();
        let direct_big = big_k.macs_per_channel_pair();
        assert!(fft_conv_multiplies(big_k) < direct_big);
    }
}
