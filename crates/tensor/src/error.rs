use std::fmt;

/// Errors of the fallible products (`Tensor::try_matmul` and its
/// transposed forms).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The operands' inner or batch dimensions do not agree.
    ShapeMismatch { lhs: Vec<usize>, rhs: Vec<usize>, op: &'static str },
    /// An operation-specific invariant was violated.
    Invalid(String),
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { lhs, rhs, op } => {
                write!(f, "shape mismatch in `{op}`: {lhs:?} vs {rhs:?}")
            }
            TensorError::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_descriptive() {
        let e = TensorError::ShapeMismatch { lhs: vec![2, 3], rhs: vec![4], op: "add" };
        assert!(e.to_string().contains("add"));
        let e = TensorError::Invalid("bad".into());
        assert_eq!(e.to_string(), "bad");
    }
}
