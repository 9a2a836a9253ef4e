//! Network architecture specifications — Table 4 of the paper.
//!
//! Seven variants are defined over the depth parameter N (the ResNet-N
//! naming: N counts convolution + fully-connected steps). Every variant
//! executes **the same total number of building blocks** as ResNet-N;
//! the rODENets differ in *which* block instance they execute repeatedly
//! (and therefore which one is worth offloading to the PL).

use core::fmt;

/// The seven architectures of Table 4.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Baseline ResNet-N: all blocks stacked, each executed once.
    ResNet,
    /// ODENet-N: layer1, layer2_2, layer3_2 replaced by ODE blocks.
    OdeNet,
    /// rODENet-1-N: only layer1 survives as an ODE block; layer2_2 and
    /// layer3_2 are removed and layer1 absorbs their execution budget.
    ROdeNet1,
    /// rODENet-2-N: only layer2_2 survives (as an ODE block).
    ROdeNet2,
    /// rODENet-1+2-N: layer1 and layer2_2 survive as ODE blocks.
    ROdeNet12,
    /// rODENet-3-N: only layer3_2 survives (as an ODE block).
    ROdeNet3,
    /// Hybrid-3-N: ResNet everywhere except layer3_2, which is an ODE
    /// block (the high-accuracy variant).
    Hybrid3,
}

impl Variant {
    /// All variants, in the paper's Table 4 column order.
    pub const ALL: [Variant; 7] = [
        Variant::ResNet,
        Variant::OdeNet,
        Variant::ROdeNet1,
        Variant::ROdeNet2,
        Variant::ROdeNet12,
        Variant::ROdeNet3,
        Variant::Hybrid3,
    ];

    /// The paper's display name.
    pub fn name(&self) -> &'static str {
        match self {
            Variant::ResNet => "ResNet",
            Variant::OdeNet => "ODENet",
            Variant::ROdeNet1 => "rODENet-1",
            Variant::ROdeNet2 => "rODENet-2",
            Variant::ROdeNet12 => "rODENet-1+2",
            Variant::ROdeNet3 => "rODENet-3",
            Variant::Hybrid3 => "Hybrid-3",
        }
    }
}

impl fmt::Display for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The seven rows of Table 2 / Table 4.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LayerName {
    /// Pre-processing 3×3 conv (3→16ch) + BN + ReLU.
    Conv1,
    /// 16-channel 32×32 residual/ODE blocks.
    Layer1,
    /// Stride-2 downsample block 16→32ch.
    Layer2_1,
    /// 32-channel 16×16 residual/ODE blocks.
    Layer2_2,
    /// Stride-2 downsample block 32→64ch.
    Layer3_1,
    /// 64-channel 8×8 residual/ODE blocks.
    Layer3_2,
    /// Post-processing: global average pool + 100-way FC + softmax.
    Fc,
}

impl LayerName {
    /// All layers in execution order.
    pub const ALL: [LayerName; 7] = [
        LayerName::Conv1,
        LayerName::Layer1,
        LayerName::Layer2_1,
        LayerName::Layer2_2,
        LayerName::Layer3_1,
        LayerName::Layer3_2,
        LayerName::Fc,
    ];

    /// The paper's display name.
    pub fn name(&self) -> &'static str {
        match self {
            LayerName::Conv1 => "conv1",
            LayerName::Layer1 => "layer1",
            LayerName::Layer2_1 => "layer2_1",
            LayerName::Layer2_2 => "layer2_2",
            LayerName::Layer3_1 => "layer3_1",
            LayerName::Layer3_2 => "layer3_2",
            LayerName::Fc => "fc",
        }
    }

    /// `(channels, height/width)` of the layer's **output** feature map
    /// (Table 2; note the paper's §3.1 prose swaps layer1/layer3_2 —
    /// Table 2 is authoritative).
    pub fn geometry(&self) -> (usize, usize) {
        match self {
            LayerName::Conv1 | LayerName::Layer1 => (16, 32),
            LayerName::Layer2_1 | LayerName::Layer2_2 => (32, 16),
            LayerName::Layer3_1 | LayerName::Layer3_2 => (64, 8),
            LayerName::Fc => (100, 1),
        }
    }
}

impl fmt::Display for LayerName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How one of the residual layers appears in a variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LayerPlan {
    /// Number of block instances that physically exist (hold parameters).
    pub stacked: usize,
    /// Executions of each instance (`> 1` only for ODE blocks).
    pub execs: usize,
    /// Whether the instance is an ODE block (time-augmented convolutions,
    /// solver-driven). Plain stacked blocks are ordinary residual blocks.
    pub is_ode: bool,
}

impl LayerPlan {
    const fn absent() -> Self {
        LayerPlan {
            stacked: 0,
            execs: 0,
            is_ode: false,
        }
    }

    const fn plain(stacked: usize) -> Self {
        LayerPlan {
            stacked,
            execs: 1,
            is_ode: false,
        }
    }

    const fn ode(execs: usize) -> Self {
        LayerPlan {
            stacked: 1,
            execs,
            is_ode: true,
        }
    }

    /// Total building-block executions this layer contributes.
    pub const fn total_execs(&self) -> usize {
        self.stacked * self.execs
    }
}

/// A fully resolved architecture: variant × depth.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetSpec {
    /// Which of the seven architectures.
    pub variant: Variant,
    /// The depth parameter N (20, 32, 44, 56 in the paper).
    pub n: usize,
    /// Plan for layer1.
    pub layer1: LayerPlan,
    /// Plan for layer2_1 (always one plain downsample block).
    pub layer2_1: LayerPlan,
    /// Plan for layer2_2.
    pub layer2_2: LayerPlan,
    /// Plan for layer3_1 (always one plain downsample block).
    pub layer3_1: LayerPlan,
    /// Plan for layer3_2.
    pub layer3_2: LayerPlan,
    /// Number of classification classes (100 for CIFAR-100).
    pub classes: usize,
}

/// Depths evaluated in the paper.
pub const PAPER_DEPTHS: [usize; 4] = [20, 32, 44, 56];

/// The deepest network a [`NetSpec`] describes: ResNet-1202, the deepest
/// CIFAR ResNet of He et al. (2016). With [`MAX_CLASSES`] it bounds what
/// a checkpoint header can make [`crate::Network::new`] allocate.
pub const MAX_DEPTH: usize = 1202;

/// The most classes a [`NetSpec`] describes (the classifier holds
/// `64 × classes` weights).
pub const MAX_CLASSES: usize = 1 << 16;

impl NetSpec {
    /// Build the Table 4 plan for `variant` at depth `n`.
    ///
    /// # Panics
    /// If the depth is outside `14..=`[`MAX_DEPTH`] or incompatible with
    /// the variant's execution-count formulas (all paper depths
    /// 20/32/44/56 are valid for every variant).
    pub fn new(variant: Variant, n: usize) -> Self {
        Self::try_new(variant, n, 100).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The fallible constructor behind [`NetSpec::new`] and
    /// [`NetSpec::with_classes`]: the one place the depth and class
    /// rules live, so input read from a file gets an error, not a panic.
    pub(crate) fn try_new(variant: Variant, n: usize, classes: usize) -> Result<Self, String> {
        if !(14..=MAX_DEPTH).contains(&n) {
            return Err(format!("depth N must be in 14..={MAX_DEPTH} (got {n})"));
        }
        if !(2..=MAX_CLASSES).contains(&classes) {
            return Err(format!(
                "the class count must be in 2..={MAX_CLASSES} (got {classes})"
            ));
        }
        let div = |num: usize, den: usize, what: &str| -> Result<usize, String> {
            if num.is_multiple_of(den) {
                Ok(num / den)
            } else {
                Err(format!(
                    "{what}: ({num}) must be divisible by {den} for N={n} in {variant}"
                ))
            }
        };
        // ResNet stack sizes.
        let s1 = div(n - 2, 6, "(N-2)/6")?;
        let s2 = div(n - 8, 6, "(N-8)/6")?;
        let (layer1, layer2_2, layer3_2) = match variant {
            Variant::ResNet => (
                LayerPlan::plain(s1),
                LayerPlan::plain(s2),
                LayerPlan::plain(s2),
            ),
            Variant::OdeNet => (LayerPlan::ode(s1), LayerPlan::ode(s2), LayerPlan::ode(s2)),
            Variant::ROdeNet1 => (
                LayerPlan::ode(div(n - 6, 2, "(N-6)/2")?),
                LayerPlan::absent(),
                LayerPlan::absent(),
            ),
            Variant::ROdeNet2 => (
                LayerPlan::plain(1),
                LayerPlan::ode(div(n - 8, 2, "(N-8)/2")?),
                LayerPlan::absent(),
            ),
            Variant::ROdeNet12 => (
                LayerPlan::ode(div(n - 4, 4, "(N-4)/4")?),
                LayerPlan::ode(div(n - 8, 4, "(N-8)/4")?),
                LayerPlan::absent(),
            ),
            Variant::ROdeNet3 => (
                LayerPlan::plain(1),
                LayerPlan::absent(),
                LayerPlan::ode(div(n - 8, 2, "(N-8)/2")?),
            ),
            Variant::Hybrid3 => (
                LayerPlan::plain(s1),
                LayerPlan::plain(s2),
                LayerPlan::ode(s2),
            ),
        };
        Ok(NetSpec {
            variant,
            n,
            layer1,
            layer2_1: LayerPlan::plain(1),
            layer2_2,
            layer3_1: LayerPlan::plain(1),
            layer3_2,
            classes,
        })
    }

    /// Same spec with a different class count (e.g. the synthetic dataset).
    ///
    /// # Panics
    /// If `classes` is outside `2..=`[`MAX_CLASSES`].
    pub fn with_classes(self, classes: usize) -> Self {
        let checked =
            Self::try_new(self.variant, self.n, classes).unwrap_or_else(|e| panic!("{e}"));
        NetSpec {
            classes: checked.classes,
            ..self
        }
    }

    /// The plan for a residual layer.
    pub fn plan(&self, layer: LayerName) -> LayerPlan {
        match layer {
            LayerName::Conv1 | LayerName::Fc => LayerPlan::plain(1),
            LayerName::Layer1 => self.layer1,
            LayerName::Layer2_1 => self.layer2_1,
            LayerName::Layer2_2 => self.layer2_2,
            LayerName::Layer3_1 => self.layer3_1,
            LayerName::Layer3_2 => self.layer3_2,
        }
    }

    /// Total building-block executions (must equal ResNet-N's block count
    /// for every variant — the paper's equal-compute design rule).
    pub fn total_block_execs(&self) -> usize {
        self.layer1.total_execs()
            + self.layer2_1.total_execs()
            + self.layer2_2.total_execs()
            + self.layer3_1.total_execs()
            + self.layer3_2.total_execs()
    }

    /// Display name like `rODENet-3-56`.
    pub fn display_name(&self) -> String {
        format!("{}-{}", self.variant.name(), self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet20_stacks() {
        let s = NetSpec::new(Variant::ResNet, 20);
        assert_eq!(s.layer1, LayerPlan::plain(3));
        assert_eq!(s.layer2_2, LayerPlan::plain(2));
        assert_eq!(s.layer3_2, LayerPlan::plain(2));
        assert_eq!(s.total_block_execs(), 9);
    }

    #[test]
    fn table4_execution_counts_n20() {
        // Paper Table 4, N = 20.
        let cases = [
            (Variant::OdeNet, (1, 3, true), (1, 2, true), (1, 2, true)),
            (
                Variant::ROdeNet1,
                (1, 7, true),
                (0, 0, false),
                (0, 0, false),
            ),
            (
                Variant::ROdeNet2,
                (1, 1, false),
                (1, 6, true),
                (0, 0, false),
            ),
            (
                Variant::ROdeNet12,
                (1, 4, true),
                (1, 3, true),
                (0, 0, false),
            ),
            (
                Variant::ROdeNet3,
                (1, 1, false),
                (0, 0, false),
                (1, 6, true),
            ),
            (Variant::Hybrid3, (3, 1, false), (2, 1, false), (1, 2, true)),
        ];
        for (variant, l1, l22, l32) in cases {
            let s = NetSpec::new(variant, 20);
            for (plan, (stacked, execs, is_ode), name) in [
                (s.layer1, l1, "layer1"),
                (s.layer2_2, l22, "layer2_2"),
                (s.layer3_2, l32, "layer3_2"),
            ] {
                assert_eq!(plan.stacked, stacked, "{variant} {name} stacked");
                assert_eq!(plan.execs, execs, "{variant} {name} execs");
                assert_eq!(plan.is_ode, is_ode, "{variant} {name} is_ode");
            }
        }
    }

    #[test]
    fn equal_compute_invariant_all_variants_all_depths() {
        // Every variant executes exactly as many building blocks as
        // ResNet-N — the design rule behind Table 4.
        for n in PAPER_DEPTHS {
            let baseline = NetSpec::new(Variant::ResNet, n).total_block_execs();
            for v in Variant::ALL {
                assert_eq!(
                    NetSpec::new(v, n).total_block_execs(),
                    baseline,
                    "{v}-{n} must execute {baseline} blocks"
                );
            }
        }
    }

    #[test]
    fn ode_layers_have_single_instance() {
        for n in PAPER_DEPTHS {
            for v in Variant::ALL {
                let s = NetSpec::new(v, n);
                for plan in [s.layer1, s.layer2_2, s.layer3_2] {
                    if plan.is_ode {
                        assert_eq!(plan.stacked, 1, "ODE blocks are single instances");
                    }
                    if plan.stacked > 1 {
                        assert_eq!(plan.execs, 1, "stacked blocks execute once");
                    }
                }
            }
        }
    }

    #[test]
    fn rodenet3_heavily_uses_layer3_2() {
        let s = NetSpec::new(Variant::ROdeNet3, 56);
        assert_eq!(s.layer3_2.execs, 24);
        assert_eq!(s.layer1, LayerPlan::plain(1));
        assert_eq!(s.layer2_2, LayerPlan::absent());
    }

    #[test]
    fn downsample_blocks_always_present() {
        for n in PAPER_DEPTHS {
            for v in Variant::ALL {
                let s = NetSpec::new(v, n);
                assert_eq!(s.layer2_1, LayerPlan::plain(1));
                assert_eq!(s.layer3_1, LayerPlan::plain(1));
            }
        }
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn invalid_depth_rejected() {
        let _ = NetSpec::new(Variant::ResNet, 21);
    }

    #[test]
    fn geometry_matches_table2() {
        assert_eq!(LayerName::Layer1.geometry(), (16, 32));
        assert_eq!(LayerName::Layer2_2.geometry(), (32, 16));
        assert_eq!(LayerName::Layer3_2.geometry(), (64, 8));
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(
            NetSpec::new(Variant::ROdeNet3, 56).display_name(),
            "rODENet-3-56"
        );
        assert_eq!(Variant::ROdeNet12.name(), "rODENet-1+2");
    }

    #[test]
    fn with_classes() {
        let s = NetSpec::new(Variant::ResNet, 20).with_classes(10);
        assert_eq!(s.classes, 10);
    }
}
