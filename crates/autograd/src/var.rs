//! The [`Var`] graph node and the reverse-mode backward pass.
//!
//! Every operation on `Var`s builds a fresh node holding its output value,
//! its parents, and a backward closure mapping the output cotangent to
//! parent cotangents. [`Var::backward`] runs a topological traversal in
//! reverse creation order (creation ids are strictly increasing, so a
//! simple sort by id yields a valid topological order) and accumulates
//! gradients; parameter leaves additionally flush their gradient into the
//! persistent [`crate::Param`] storage so optimisers can see it across
//! steps.

use crate::param::Param;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use ts3_tensor::Tensor;

thread_local! {
    static NEXT_ID: Cell<u64> = const { Cell::new(0) };
}

fn fresh_id() -> u64 {
    NEXT_ID.with(|c| {
        let id = c.get();
        c.set(id + 1);
        id
    })
}

/// Backward closure: given the output cotangent and the parent values,
/// produce one optional cotangent per parent (None = no gradient flows),
/// each shaped like its parent.
pub type BackwardFn = Box<dyn Fn(&Tensor, &[Var]) -> Vec<Option<Tensor>>>;

pub(crate) enum NodeKind {
    /// Constant input (no gradient tracked beyond the node itself).
    Leaf,
    /// Leaf bound to a persistent parameter.
    ParamLeaf(Param),
    /// Interior node with parents and a backward rule.
    Node { parents: Vec<Var>, backward: BackwardFn },
}

pub(crate) struct VarInner {
    pub(crate) id: u64,
    pub(crate) value: Tensor,
    pub(crate) grad: RefCell<Option<Tensor>>,
    pub(crate) kind: NodeKind,
}

/// A node in the dynamic autodiff graph. Cloning is cheap (`Rc`).
#[derive(Clone)]
pub struct Var(pub(crate) Rc<VarInner>);

impl Var {
    /// Wrap a constant tensor (gradient is tracked to this node but goes
    /// nowhere further).
    pub fn constant(value: Tensor) -> Var {
        Var(Rc::new(VarInner {
            id: fresh_id(),
            value,
            grad: RefCell::new(None),
            kind: NodeKind::Leaf,
        }))
    }

    /// Leaf bound to a parameter; used by [`Param::var`].
    pub(crate) fn param_leaf(value: Tensor, param: Param) -> Var {
        if !crate::nograd::is_recording() {
            return Var::constant(value);
        }
        Var(Rc::new(VarInner {
            id: fresh_id(),
            value,
            grad: RefCell::new(None),
            kind: NodeKind::ParamLeaf(param),
        }))
    }

    /// Build an interior node from its eagerly computed `value`, its
    /// `parents` and a `backward` rule (the vector-Jacobian product).
    /// Every built-in op goes through here, and so does any operator
    /// with a hand-written adjoint, such as the wavelet transforms in
    /// `ts3net-core`.
    ///
    /// A parent may be listed more than once: [`Var::backward`] adds its
    /// cotangents into that parent's one gradient slot in list order, and
    /// the first to reach an empty slot moves in.
    ///
    /// Under a [`crate::NoGradGuard`] the node degenerates to a leaf —
    /// same value, no parents, no backward closure — and the upstream
    /// graph is released immediately.
    pub fn node(value: Tensor, parents: Vec<Var>, backward: BackwardFn) -> Var {
        if !crate::nograd::is_recording() {
            drop(parents);
            drop(backward);
            return Var::constant(value);
        }
        Var(Rc::new(VarInner {
            id: fresh_id(),
            value,
            grad: RefCell::new(None),
            kind: NodeKind::Node { parents, backward },
        }))
    }

    /// The node's value.
    pub fn value(&self) -> &Tensor {
        &self.0.value
    }

    /// Shape of the node's value.
    pub fn shape(&self) -> &[usize] {
        self.0.value.shape()
    }

    /// The gradient accumulated at this node by the last `backward` call,
    /// if any.
    pub fn grad(&self) -> Option<Tensor> {
        self.0.grad.borrow().clone()
    }

    /// Unique creation id (monotonically increasing).
    pub fn id(&self) -> u64 {
        self.0.id
    }

    /// Run reverse-mode differentiation from this node, seeding with ones
    /// (the node is usually a scalar loss).
    pub fn backward(&self) {
        self.backward_with(Tensor::ones(self.shape()));
    }

    /// Run reverse-mode differentiation with an explicit seed cotangent.
    ///
    /// # Panics
    /// Panics if the seed shape does not match the node's value shape.
    pub fn backward_with(&self, seed: Tensor) {
        assert_eq!(
            seed.shape(),
            self.shape(),
            "backward seed shape {:?} does not match value shape {:?}",
            seed.shape(),
            self.shape()
        );
        // Collect the reachable subgraph. A BTreeMap keyed by creation
        // id: iteration order is the topological order's reverse for
        // free, and stays deterministic (no-hashmap-in-lib contract).
        let mut nodes: BTreeMap<u64, Var> = BTreeMap::new();
        let mut stack = vec![self.clone()];
        while let Some(v) = stack.pop() {
            if nodes.contains_key(&v.0.id) {
                continue;
            }
            if let NodeKind::Node { parents, .. } = &v.0.kind {
                for p in parents {
                    if !nodes.contains_key(&p.0.id) {
                        stack.push(p.clone());
                    }
                }
            }
            nodes.insert(v.0.id, v);
        }
        // Clear stale gradients from any previous pass over shared nodes.
        for v in nodes.values() {
            *v.0.grad.borrow_mut() = None;
        }
        *self.0.grad.borrow_mut() = Some(seed);
        // Reverse topological order = descending creation id; the
        // BTreeMap iterates ascending, so reversing its keys replaces
        // the explicit sort the HashMap needed.
        let order: Vec<u64> = nodes.keys().rev().copied().collect();
        for id in order {
            let v = &nodes[&id];
            // Borrowed, not copied: a node is never its own parent, so
            // the parents' `borrow_mut` below cannot conflict.
            let grad = v.0.grad.borrow();
            let Some(grad) = grad.as_ref() else {
                continue; // no cotangent reached this node
            };
            match &v.0.kind {
                NodeKind::Leaf => {}
                NodeKind::ParamLeaf(param) => param.accumulate_grad(grad),
                NodeKind::Node { parents, backward } => {
                    let parent_grads = backward(grad, parents);
                    assert_eq!(
                        parent_grads.len(),
                        parents.len(),
                        "backward rule returned {} gradients for {} parents",
                        parent_grads.len(),
                        parents.len()
                    );
                    for (p, pg) in parents.iter().zip(parent_grads) {
                        if let Some(pg) = pg {
                            assert_eq!(
                                pg.shape(),
                                p.shape(),
                                "backward produced grad of shape {:?} for parent of shape {:?}",
                                pg.shape(),
                                p.shape()
                            );
                            let mut slot = p.0.grad.borrow_mut();
                            match slot.as_mut() {
                                Some(acc) => acc.add_assign(&pg),
                                None => *slot = Some(pg),
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Reduce `grad` (shaped like the broadcast output) back to `shape` by
/// summing over broadcast axes — the adjoint of broadcasting. `grad`
/// itself is copied only when no axis is summed.
pub(crate) fn reduce_grad_to_shape(grad: &Tensor, shape: &[usize]) -> Tensor {
    let mut reduced: Option<Tensor> = None;
    // Sum away leading axes that were added by broadcasting.
    while reduced.as_ref().unwrap_or(grad).rank() > shape.len() {
        reduced = Some(reduced.as_ref().unwrap_or(grad).sum_axis(0));
    }
    // Sum (keepdim) over axes where the original had length 1.
    for (ax, &len) in shape.iter().enumerate() {
        let g = reduced.as_ref().unwrap_or(grad);
        if len == 1 && g.shape()[ax] != 1 {
            reduced = Some(g.sum_axis_keepdim(ax));
        }
    }
    let g = reduced.unwrap_or_else(|| grad.clone());
    assert_eq!(g.shape(), shape, "reduce_grad_to_shape failed: {:?} -> {:?}", grad.shape(), shape);
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_has_value_and_no_initial_grad() {
        let v = Var::constant(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        assert_eq!(v.value().as_slice(), &[1.0, 2.0]);
        assert!(v.grad().is_none());
    }

    #[test]
    fn ids_increase() {
        let a = Var::constant(Tensor::zeros(&[1]));
        let b = Var::constant(Tensor::zeros(&[1]));
        assert!(b.id() > a.id());
    }

    /// y = 3x with its adjoint 3g, built with the public constructor.
    fn triple(x: &Var) -> Var {
        let y = x.value().mul_scalar(3.0);
        Var::node(y, vec![x.clone()], Box::new(|g, _| vec![Some(g.mul_scalar(3.0))]))
    }

    #[test]
    fn hand_written_node_forwards_and_backwards() {
        let x = Var::constant(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let y = triple(&x);
        assert_eq!(y.value().as_slice(), &[3.0, 6.0]);
        y.sum().backward();
        assert_eq!(x.grad().unwrap().as_slice(), &[3.0, 3.0]);
    }

    #[test]
    fn hand_written_node_with_two_parents() {
        // y = a + 2b.
        let a = Var::constant(Tensor::from_vec(vec![1.0], &[1]));
        let b = Var::constant(Tensor::from_vec(vec![5.0], &[1]));
        let value = a.value().add(&b.value().mul_scalar(2.0));
        let y = Var::node(
            value,
            vec![a.clone(), b.clone()],
            Box::new(|g, _| vec![Some(g.clone()), Some(g.mul_scalar(2.0))]),
        );
        assert_eq!(y.value().as_slice(), &[11.0]);
        y.backward();
        assert_eq!(a.grad().unwrap().as_slice(), &[1.0]);
        assert_eq!(b.grad().unwrap().as_slice(), &[2.0]);
    }

    #[test]
    fn hand_written_node_composes_with_builtin_ops() {
        let x = Var::constant(Tensor::from_vec(vec![2.0], &[1]));
        let y = triple(&x).square(); // (3x)^2
        y.backward();
        // d/dx 9x^2 = 18x = 36.
        assert_eq!(x.grad().unwrap().as_slice(), &[36.0]);
    }

    #[test]
    fn duplicate_parent_accumulates_in_parent_order() {
        // One parent listed three times, with cotangents `big`, `1` and
        // `-big`. In f32 (big + 1) - big is 0 but (big - big) + 1 is 1,
        // so the result shows the order of the additions.
        let big = 1e8f32;
        let x = Var::constant(Tensor::from_vec(vec![0.0], &[1]));
        let y = Var::node(
            x.value().clone(),
            vec![x.clone(), x.clone(), x.clone()],
            Box::new(move |g, _| {
                vec![Some(g.mul_scalar(big)), Some(g.clone()), Some(g.mul_scalar(-big))]
            }),
        );
        y.backward();
        assert_eq!(x.grad().unwrap().as_slice(), &[0.0]);

        // The first contribution moves in rather than being added to a
        // zero: a lone `-0.0` keeps its sign (`0.0 + -0.0` would not).
        let z = Var::node(
            x.value().clone(),
            vec![x.clone(), x.clone()],
            Box::new(|g, _| vec![Some(g.mul_scalar(-0.0)), Some(g.mul_scalar(-0.0))]),
        );
        z.backward();
        assert_eq!(x.grad().unwrap().as_slice()[0].to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn reduce_grad_identity_when_shapes_match() {
        let g = Tensor::ones(&[2, 3]);
        assert_eq!(reduce_grad_to_shape(&g, &[2, 3]), g);
    }

    #[test]
    fn reduce_grad_sums_leading_axes() {
        let g = Tensor::ones(&[4, 3]);
        let r = reduce_grad_to_shape(&g, &[3]);
        assert_eq!(r.as_slice(), &[4.0, 4.0, 4.0]);
    }

    #[test]
    fn reduce_grad_sums_unit_axes() {
        let g = Tensor::ones(&[2, 3]);
        let r = reduce_grad_to_shape(&g, &[2, 1]);
        assert_eq!(r.as_slice(), &[3.0, 3.0]);
    }

    #[test]
    fn reduce_grad_to_scalar() {
        let g = Tensor::ones(&[2, 2]);
        let r = reduce_grad_to_shape(&g, &[]);
        assert_eq!(r.item(), 4.0);
    }
}
