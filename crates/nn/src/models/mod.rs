//! The benchmark model zoo: the four evaluation workloads of the paper.
//!
//! "The suite encompasses compute-intensive architectures including
//! ResNet18 and VGG19, alongside compact models featuring depth-wise
//! separable convolutions such as MobileNetV2 and EfficientNetB0"
//! (Sec. IV-A). All models are built for INT8 inference at batch size 1.
//!
//! Every constructor takes the input resolution so that experiments can be
//! scaled down (e.g. 32 or 64 pixels) for fast regression runs while the
//! 224-pixel ImageNet geometry remains available; EXPERIMENTS.md records
//! which resolution each reproduced figure uses.

mod efficientnet;
mod mobilenet;
mod resnet;
mod vgg;

pub use efficientnet::efficientnet_b0;
pub use mobilenet::mobilenet_v2;
pub use resnet::resnet18;
pub use vgg::vgg19;

use crate::graph::Model;
use crate::NnError;

/// The canonical benchmark suite of the paper, at the given input
/// resolution, in the order used by Fig. 5.
pub fn benchmark_suite(resolution: u32) -> Vec<Model> {
    vec![
        resnet18(resolution),
        vgg19(resolution),
        mobilenet_v2(resolution),
        efficientnet_b0(resolution),
    ]
}

/// Looks a benchmark model up by its lowercase name and builds it at
/// `resolution`.
///
/// # Errors
///
/// [`NnError::UnknownModel`] for a name outside the zoo, and
/// [`NnError::Resolution`] for an input too small for the model's
/// downsampling chain: every model needs at least one pixel, and VGG19's
/// five unpadded 2×2 stride-2 max-pools need 2⁵ = 32.
pub fn by_name(name: &str, resolution: u32) -> Result<Model, NnError> {
    let (build, min): (fn(u32) -> Model, u32) = match name {
        "resnet18" => (resnet18, 1),
        "vgg19" => (vgg19, 32),
        "mobilenetv2" | "mobilenet_v2" => (mobilenet_v2, 1),
        "efficientnetb0" | "efficientnet_b0" => (efficientnet_b0, 1),
        _ => return Err(NnError::UnknownModel { name: name.to_owned() }),
    };
    if resolution < min {
        return Err(NnError::Resolution { model: name.to_owned(), resolution, min });
    }
    Ok(build(resolution))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_contains_the_four_paper_models() {
        let suite = benchmark_suite(224);
        let names: Vec<_> = suite.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["resnet18", "vgg19", "mobilenetv2", "efficientnetb0"]);
        for model in &suite {
            assert!(model.graph.validate().is_ok(), "{} must validate", model.name);
        }
    }

    #[test]
    fn parameter_counts_match_published_sizes() {
        // Weight byte counts (INT8) should be close to the published
        // parameter counts of the FP32 models.
        let resnet = resnet18(224).graph.stats().total_weight_bytes as f64;
        assert!((10.0e6..13.5e6).contains(&resnet), "resnet18 params {resnet}");
        let vgg = vgg19(224).graph.stats().total_weight_bytes as f64;
        assert!((138.0e6..146.0e6).contains(&vgg), "vgg19 params {vgg}");
        let mobilenet = mobilenet_v2(224).graph.stats().total_weight_bytes as f64;
        assert!((2.8e6..4.5e6).contains(&mobilenet), "mobilenetv2 params {mobilenet}");
        let efficientnet = efficientnet_b0(224).graph.stats().total_weight_bytes as f64;
        assert!((4.0e6..6.5e6).contains(&efficientnet), "efficientnetb0 params {efficientnet}");
    }

    #[test]
    fn mac_counts_match_published_complexity() {
        let resnet = resnet18(224).graph.stats().total_macs as f64;
        assert!((1.6e9..2.1e9).contains(&resnet), "resnet18 MACs {resnet}");
        let vgg = vgg19(224).graph.stats().total_macs as f64;
        assert!((18.0e9..21.0e9).contains(&vgg), "vgg19 MACs {vgg}");
        let mobilenet = mobilenet_v2(224).graph.stats().total_macs as f64;
        assert!((0.25e9..0.45e9).contains(&mobilenet), "mobilenetv2 MACs {mobilenet}");
        let efficientnet = efficientnet_b0(224).graph.stats().total_macs as f64;
        assert!((0.3e9..0.55e9).contains(&efficientnet), "efficientnetb0 MACs {efficientnet}");
    }

    #[test]
    fn compact_models_use_depthwise_convolutions() {
        for model in [mobilenet_v2(224), efficientnet_b0(224)] {
            let has_dw = model.graph.nodes().iter().any(|n| {
                matches!(
                    n.op,
                    crate::OpKind::Conv2d { groups, .. } if groups > 1
                )
            });
            assert!(has_dw, "{} must contain depth-wise convolutions", model.name);
        }
    }

    #[test]
    fn reduced_resolution_scales_macs_but_not_weights() {
        let full = resnet18(224).graph.stats();
        let small = resnet18(64).graph.stats();
        assert!(small.total_macs < full.total_macs / 6);
        // FC input stays 512 features thanks to global average pooling.
        assert_eq!(small.total_weight_bytes, full.total_weight_bytes);
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("resnet18", 64).is_ok());
        assert!(by_name("mobilenet_v2", 64).is_ok());
        assert_eq!(
            by_name("unknown", 64).unwrap_err(),
            NnError::UnknownModel { name: "unknown".into() }
        );
    }

    #[test]
    fn too_small_resolutions_are_errors_not_panics() {
        for name in ["resnet18", "vgg19", "mobilenetv2", "efficientnetb0"] {
            let error = by_name(name, 0).unwrap_err();
            assert!(error.to_string().contains("resolution 0 px"), "{error}");
        }
        let error = by_name("vgg19", 31).unwrap_err();
        assert_eq!(error, NnError::Resolution { model: "vgg19".into(), resolution: 31, min: 32 });
        // Each model builds at its smallest accepted resolution.
        for (name, min) in
            [("resnet18", 1), ("vgg19", 32), ("mobilenetv2", 1), ("efficientnetb0", 1)]
        {
            assert!(by_name(name, min).is_ok(), "{name}@{min}");
        }
    }
}
