//! Golden reference executor for functional validation.
//!
//! The CIMFlow compiler validates generated code against the expected
//! execution results (the "Functional Validation / Exec. Result Check" box
//! in Fig. 2). This module provides the bit-exact INT8 golden model that
//! compiler and simulator tests compare against: direct convolution,
//! im2col + matrix multiplication (to validate the compiler's virtual
//! mapping), fully connected layers, pooling and element-wise operators.
//!
//! Weights are synthetic: they are generated deterministically from the
//! operator name so that the compiler, the simulator and the reference
//! model all observe identical values without shipping real checkpoints.

use crate::graph::{Graph, Node};
use crate::op::{ActivationKind, OpKind};
use crate::quant::requantize;
use crate::tensor::TensorShape;
use crate::NnError;

/// A dense INT8 activation tensor in `N × C × H × W` layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tensor {
    /// Shape of the tensor.
    pub shape: TensorShape,
    /// Row-major (`n`, `c`, `h`, `w`) element data.
    pub data: Vec<i8>,
}

impl Tensor {
    /// Creates a zero-filled tensor.
    pub fn zeros(shape: TensorShape) -> Self {
        Tensor { shape, data: vec![0; shape.elements() as usize] }
    }

    /// Creates a tensor with deterministic pseudo-random contents derived
    /// from `seed`.
    pub fn synthetic(shape: TensorShape, seed: u64) -> Self {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        let data = (0..shape.elements())
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 17) as i8 - 8
            })
            .collect();
        Tensor { shape, data }
    }

    /// Reads one element (zero for out-of-bounds reads, matching zero
    /// padding semantics).
    pub fn at(&self, n: u32, c: u32, h: i64, w: i64) -> i8 {
        if h < 0 || w < 0 || h >= i64::from(self.shape.h) || w >= i64::from(self.shape.w) {
            return 0;
        }
        let idx = ((u64::from(n) * u64::from(self.shape.c) + u64::from(c))
            * u64::from(self.shape.h)
            + h as u64)
            * u64::from(self.shape.w)
            + w as u64;
        self.data[idx as usize]
    }

    fn set(&mut self, n: u32, c: u32, h: u32, w: u32, value: i8) {
        let idx = ((u64::from(n) * u64::from(self.shape.c) + u64::from(c))
            * u64::from(self.shape.h)
            + u64::from(h))
            * u64::from(self.shape.w)
            + u64::from(w);
        self.data[idx as usize] = value;
    }
}

/// Deterministic synthetic weights for an operator: `count` INT8 values in
/// `[-8, 8]` derived from the operator name.
pub fn synthetic_weights(name: &str, count: u64) -> Vec<i8> {
    let mut state: u64 = 0xCBF2_9CE4_8422_2325;
    for b in name.bytes() {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x1000_0000_01B3);
    }
    (0..count)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 17) as i8 - 8
        })
        .collect()
}

/// The requantization shift applied after every MVM-based operator in the
/// reference flow (and by the generated `vec_quant` instructions).
pub const REQUANT_SHIFT: u32 = 8;

/// Direct 2-D convolution with zero padding, INT32 accumulation and
/// right-shift requantization to INT8.
pub fn conv2d(
    input: &Tensor,
    weights: &[i8],
    out_channels: u32,
    kernel: (u32, u32),
    stride: (u32, u32),
    padding: (u32, u32),
    groups: u32,
) -> Result<Tensor, NnError> {
    let op = OpKind::Conv2d { out_channels, kernel, stride, padding, groups };
    let out_shape = op.output_shape(input.shape)?;
    let in_per_group = input.shape.c / groups;
    let out_per_group = out_channels / groups;
    let mut output = Tensor::zeros(out_shape);
    for n in 0..input.shape.n {
        for oc in 0..out_channels {
            let group = oc / out_per_group;
            for oh in 0..out_shape.h {
                for ow in 0..out_shape.w {
                    let mut acc: i32 = 0;
                    for ic in 0..in_per_group {
                        for kh in 0..kernel.0 {
                            for kw in 0..kernel.1 {
                                let ih = i64::from(oh * stride.0 + kh) - i64::from(padding.0);
                                let iw = i64::from(ow * stride.1 + kw) - i64::from(padding.1);
                                let x = input.at(n, group * in_per_group + ic, ih, iw);
                                let widx = ((u64::from(oc) * u64::from(in_per_group)
                                    + u64::from(ic))
                                    * u64::from(kernel.0)
                                    + u64::from(kh))
                                    * u64::from(kernel.1)
                                    + u64::from(kw);
                                let w = weights[widx as usize];
                                acc += i32::from(x) * i32::from(w);
                            }
                        }
                    }
                    output.set(n, oc, oh, ow, requantize(acc, REQUANT_SHIFT));
                }
            }
        }
    }
    Ok(output)
}

/// The im2col lowering of a convolution input: one row per output spatial
/// position, one column per `(channel, kh, kw)` weight position.
///
/// This is the transformation the compiler's virtual-mapping phase applies
/// before mapping the weight matrix onto the 2-D CIM array; the unit test
/// in this module proves `im2col + matmul == direct convolution`.
pub fn im2col(
    input: &Tensor,
    kernel: (u32, u32),
    stride: (u32, u32),
    padding: (u32, u32),
) -> (Vec<i8>, usize, usize) {
    let op = OpKind::Conv2d { out_channels: 1, kernel, stride, padding, groups: 1 };
    let out = op.output_shape(input.shape).expect("caller validated the geometry");
    let rows = (out.h * out.w * input.shape.n) as usize;
    let cols = (input.shape.c * kernel.0 * kernel.1) as usize;
    let mut matrix = vec![0i8; rows * cols];
    let mut row = 0usize;
    for n in 0..input.shape.n {
        for oh in 0..out.h {
            for ow in 0..out.w {
                let mut col = 0usize;
                for c in 0..input.shape.c {
                    for kh in 0..kernel.0 {
                        for kw in 0..kernel.1 {
                            let ih = i64::from(oh * stride.0 + kh) - i64::from(padding.0);
                            let iw = i64::from(ow * stride.1 + kw) - i64::from(padding.1);
                            matrix[row * cols + col] = input.at(n, c, ih, iw);
                            col += 1;
                        }
                    }
                }
                row += 1;
            }
        }
    }
    (matrix, rows, cols)
}

/// INT8 matrix multiplication with INT32 accumulation:
/// `a` is `rows × k` (row-major), `b` is `k × cols` (row-major), the result
/// is `rows × cols` of INT32 accumulators.
pub fn matmul_i8(a: &[i8], b: &[i8], rows: usize, k: usize, cols: usize) -> Vec<i32> {
    let mut out = vec![0i32; rows * cols];
    for r in 0..rows {
        for kk in 0..k {
            let av = i32::from(a[r * k + kk]);
            if av == 0 {
                continue;
            }
            for c in 0..cols {
                out[r * cols + c] += av * i32::from(b[kk * cols + c]);
            }
        }
    }
    out
}

/// Fully connected layer over the flattened input.
pub fn linear(input: &Tensor, weights: &[i8], out_features: u32) -> Tensor {
    let in_features = input.shape.elements_per_item() as usize;
    let mut output = Tensor::zeros(TensorShape::new(input.shape.n, out_features, 1, 1));
    for n in 0..input.shape.n as usize {
        for o in 0..out_features as usize {
            let mut acc = 0i32;
            for i in 0..in_features {
                let x = input.data[n * in_features + i];
                let w = weights[o * in_features + i];
                acc += i32::from(x) * i32::from(w);
            }
            output.data[n * out_features as usize + o] = requantize(acc, REQUANT_SHIFT);
        }
    }
    output
}

/// Element-wise activation.
pub fn activation(input: &Tensor, kind: ActivationKind) -> Tensor {
    let data = input
        .data
        .iter()
        .map(|&x| match kind {
            ActivationKind::Relu => x.max(0),
            ActivationKind::Relu6 => x.clamp(0, 6),
            ActivationKind::HardSwish => {
                let xi = i32::from(x);
                let gate = (xi + 3).clamp(0, 6);
                ((xi * gate) / 6).clamp(-128, 127) as i8
            }
            ActivationKind::Sigmoid => {
                if x > 4 {
                    127
                } else if x < -4 {
                    0
                } else {
                    (64 + i32::from(x) * 16).clamp(0, 127) as i8
                }
            }
        })
        .collect();
    Tensor { shape: input.shape, data }
}

/// Element-wise saturating addition of two same-shape tensors.
pub fn add(a: &Tensor, b: &Tensor) -> Tensor {
    let data = a
        .data
        .iter()
        .zip(&b.data)
        .map(|(&x, &y)| (i32::from(x) + i32::from(y)).clamp(-128, 127) as i8)
        .collect();
    Tensor { shape: a.shape, data }
}

/// Element-wise multiplication broadcasting a `C × 1 × 1` gate tensor.
pub fn mul_broadcast(a: &Tensor, gate: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(a.shape);
    for n in 0..a.shape.n {
        for c in 0..a.shape.c {
            let g = i32::from(gate.at(n, c, 0, 0));
            for h in 0..a.shape.h {
                for w in 0..a.shape.w {
                    let v = (i32::from(a.at(n, c, i64::from(h), i64::from(w))) * g / 64)
                        .clamp(-128, 127);
                    out.set(n, c, h, w, v as i8);
                }
            }
        }
    }
    out
}

/// Window pooling (max or average).
pub fn pool(
    input: &Tensor,
    kernel: (u32, u32),
    stride: (u32, u32),
    padding: (u32, u32),
    max: bool,
) -> Result<Tensor, NnError> {
    let op = if max {
        OpKind::MaxPool { kernel, stride, padding }
    } else {
        OpKind::AvgPool { kernel, stride, padding }
    };
    let out_shape = op.output_shape(input.shape)?;
    let mut output = Tensor::zeros(out_shape);
    for n in 0..input.shape.n {
        for c in 0..input.shape.c {
            for oh in 0..out_shape.h {
                for ow in 0..out_shape.w {
                    let mut best = i32::from(i8::MIN);
                    let mut sum = 0i32;
                    let mut count = 0i32;
                    for kh in 0..kernel.0 {
                        for kw in 0..kernel.1 {
                            let ih = i64::from(oh * stride.0 + kh) - i64::from(padding.0);
                            let iw = i64::from(ow * stride.1 + kw) - i64::from(padding.1);
                            let v = i32::from(input.at(n, c, ih, iw));
                            best = best.max(v);
                            sum += v;
                            count += 1;
                        }
                    }
                    let value = if max { best } else { sum / count.max(1) };
                    output.set(n, c, oh, ow, value.clamp(-128, 127) as i8);
                }
            }
        }
    }
    Ok(output)
}

/// Global average pooling down to `C × 1 × 1`.
pub fn global_avg_pool(input: &Tensor) -> Tensor {
    let mut output = Tensor::zeros(TensorShape::new(input.shape.n, input.shape.c, 1, 1));
    let spatial = input.shape.spatial().max(1) as i32;
    for n in 0..input.shape.n {
        for c in 0..input.shape.c {
            let mut sum = 0i32;
            for h in 0..input.shape.h {
                for w in 0..input.shape.w {
                    sum += i32::from(input.at(n, c, i64::from(h), i64::from(w)));
                }
            }
            output.set(n, c, 0, 0, (sum / spatial).clamp(-128, 127) as i8);
        }
    }
    output
}

/// Executes a whole graph with synthetic weights, returning the tensor
/// values of every graph tensor. Intended for small validation graphs.
///
/// # Errors
///
/// Returns an error if an operator receives an incompatible shape.
pub fn execute(graph: &Graph, input: &Tensor) -> Result<Vec<Tensor>, NnError> {
    let mut values: Vec<Option<Tensor>> = vec![None; graph.tensors().len()];
    for (graph_input, _) in graph.inputs().iter().zip(std::iter::repeat(())) {
        values[graph_input.0] = Some(input.clone());
    }
    for id in graph.topological_order() {
        let node = graph.node(id);
        let result = execute_node(graph, node, &values)?;
        values[node.output.0] = Some(result);
    }
    Ok(values
        .into_iter()
        .map(|v| v.unwrap_or_else(|| Tensor::zeros(TensorShape::vector(1))))
        .collect())
}

fn execute_node(graph: &Graph, node: &Node, values: &[Option<Tensor>]) -> Result<Tensor, NnError> {
    let fetch = |t: crate::graph::TensorId| -> Result<&Tensor, NnError> {
        values[t.0].as_ref().ok_or_else(|| NnError::InvalidGraph {
            reason: format!("tensor {t} used before production"),
        })
    };
    let input = fetch(node.inputs[0])?;
    let input_shape = graph.tensor(node.inputs[0]).shape;
    match node.op {
        OpKind::Conv2d { out_channels, kernel, stride, padding, groups } => {
            let weights = synthetic_weights(&node.name, node.op.weight_count(input_shape));
            conv2d(input, &weights, out_channels, kernel, stride, padding, groups)
        }
        OpKind::Linear { out_features } => {
            let weights = synthetic_weights(&node.name, node.op.weight_count(input_shape));
            Ok(linear(input, &weights, out_features))
        }
        OpKind::MaxPool { kernel, stride, padding } => pool(input, kernel, stride, padding, true),
        OpKind::AvgPool { kernel, stride, padding } => pool(input, kernel, stride, padding, false),
        OpKind::GlobalAvgPool => Ok(global_avg_pool(input)),
        OpKind::Activation(kind) => Ok(activation(input, kind)),
        OpKind::Add => Ok(add(input, fetch(node.inputs[1])?)),
        OpKind::Mul => Ok(mul_broadcast(input, fetch(node.inputs[1])?)),
        OpKind::BatchNorm => Ok(input.clone()),
        OpKind::Flatten => {
            Ok(Tensor { shape: node.op.output_shape(input_shape)?, data: input.data.clone() })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    #[test]
    fn im2col_matmul_matches_direct_convolution() {
        let input = Tensor::synthetic(TensorShape::feature_map(3, 6, 6), 7);
        let out_channels = 4u32;
        let kernel = (3, 3);
        let stride = (1, 1);
        let padding = (1, 1);
        let weights = synthetic_weights("conv", u64::from(out_channels) * 3 * 9);

        let direct = conv2d(&input, &weights, out_channels, kernel, stride, padding, 1).unwrap();

        let (cols_matrix, rows, k) = im2col(&input, kernel, stride, padding);
        // Weight matrix transposed into k × out_channels layout.
        let mut weight_matrix = vec![0i8; k * out_channels as usize];
        for oc in 0..out_channels as usize {
            for kk in 0..k {
                weight_matrix[kk * out_channels as usize + oc] = weights[oc * k + kk];
            }
        }
        let acc = matmul_i8(&cols_matrix, &weight_matrix, rows, k, out_channels as usize);
        // Re-layout: rows are (oh, ow), columns are oc; direct output is (oc, oh, ow).
        for oc in 0..out_channels {
            for pos in 0..(direct.shape.h * direct.shape.w) as usize {
                let from_matmul =
                    requantize(acc[pos * out_channels as usize + oc as usize], REQUANT_SHIFT);
                let oh = pos as u32 / direct.shape.w;
                let ow = pos as u32 % direct.shape.w;
                assert_eq!(from_matmul, direct.at(0, oc, i64::from(oh), i64::from(ow)));
            }
        }
    }

    #[test]
    fn depthwise_convolution_uses_one_channel_per_group() {
        let input = Tensor::synthetic(TensorShape::feature_map(4, 5, 5), 3);
        let weights = synthetic_weights("dw", 4 * 9);
        let out = conv2d(&input, &weights, 4, (3, 3), (1, 1), (1, 1), 4).unwrap();
        assert_eq!(out.shape, input.shape);
        // Manually verify one output position of channel 2.
        let mut acc = 0i32;
        for kh in 0..3i64 {
            for kw in 0..3i64 {
                let x = input.at(0, 2, 1 + kh - 1, 1 + kw - 1);
                let w = weights[2 * 9 + (kh * 3 + kw) as usize];
                acc += i32::from(x) * i32::from(w);
            }
        }
        assert_eq!(out.at(0, 2, 1, 1), requantize(acc, REQUANT_SHIFT));
    }

    #[test]
    fn pooling_and_gap_behave() {
        let mut input = Tensor::zeros(TensorShape::feature_map(1, 4, 4));
        for (i, v) in input.data.iter_mut().enumerate() {
            *v = i as i8;
        }
        let max = pool(&input, (2, 2), (2, 2), (0, 0), true).unwrap();
        assert_eq!(max.shape, TensorShape::feature_map(1, 2, 2));
        assert_eq!(max.at(0, 0, 0, 0), 5);
        let avg = pool(&input, (2, 2), (2, 2), (0, 0), false).unwrap();
        assert_eq!(avg.at(0, 0, 0, 0), (1 + 4 + 5) / 4);
        let gap = global_avg_pool(&input);
        assert_eq!(gap.shape, TensorShape::vector(1));
        assert_eq!(i32::from(gap.data[0]), (0..16).sum::<i32>() / 16);
    }

    #[test]
    fn activations_clamp_correctly() {
        let input = Tensor { shape: TensorShape::vector(5), data: vec![-10, -1, 0, 3, 10] };
        assert_eq!(activation(&input, ActivationKind::Relu).data, vec![0, 0, 0, 3, 10]);
        assert_eq!(activation(&input, ActivationKind::Relu6).data, vec![0, 0, 0, 3, 6]);
        let hs = activation(&input, ActivationKind::HardSwish).data;
        assert_eq!(hs[0], 0);
        assert_eq!(hs[4], 10);
        let sg = activation(&input, ActivationKind::Sigmoid).data;
        assert_eq!(sg[0], 0);
        assert_eq!(sg[4], 127);
    }

    #[test]
    fn add_saturates() {
        let a = Tensor { shape: TensorShape::vector(2), data: vec![100, -100] };
        let b = Tensor { shape: TensorShape::vector(2), data: vec![100, -100] };
        assert_eq!(add(&a, &b).data, vec![127, -128]);
    }

    #[test]
    fn graph_execution_produces_all_tensors() {
        let mut b = GraphBuilder::new();
        let input = b.input("x", TensorShape::feature_map(3, 8, 8));
        let c1 = b
            .node(
                "conv1",
                OpKind::Conv2d {
                    out_channels: 4,
                    kernel: (3, 3),
                    stride: (1, 1),
                    padding: (1, 1),
                    groups: 1,
                },
                &[input],
            )
            .unwrap();
        let r1 = b.node("relu", OpKind::Activation(ActivationKind::Relu), &[c1]).unwrap();
        let g1 = b.node("gap", OpKind::GlobalAvgPool, &[r1]).unwrap();
        let fc = b.node("fc", OpKind::Linear { out_features: 10 }, &[g1]).unwrap();
        let graph = b.finish(&[fc]).unwrap();

        let values =
            execute(&graph, &Tensor::synthetic(TensorShape::feature_map(3, 8, 8), 1)).unwrap();
        let out = &values[graph.outputs()[0].0];
        assert_eq!(out.shape, TensorShape::vector(10));
        // ReLU output must be non-negative.
        let relu_tensor = &values[graph.nodes()[1].output.0];
        assert!(relu_tensor.data.iter().all(|&v| v >= 0));
    }

    #[test]
    fn synthetic_data_is_deterministic_and_bounded() {
        let a = synthetic_weights("conv1", 100);
        let b = synthetic_weights("conv1", 100);
        let c = synthetic_weights("conv2", 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|&v| (-8..=8).contains(&v)));
        let t1 = Tensor::synthetic(TensorShape::vector(64), 5);
        let t2 = Tensor::synthetic(TensorShape::vector(64), 5);
        assert_eq!(t1, t2);
    }
}
