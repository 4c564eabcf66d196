//! Evaluation metrics: accuracy and consistency (Table 3).

/// The result of evaluating a model on a dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Fraction of correctly classified samples.
    pub accuracy: f64,
    /// Predicted class per sample.
    pub predictions: Vec<usize>,
}

/// Fraction of predictions matching the true labels.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
///
/// # Examples
///
/// ```
/// use sushi_snn::accuracy;
/// assert_eq!(accuracy(&[0, 1, 2], &[0, 1, 1]), 2.0 / 3.0);
/// ```
pub fn accuracy(predictions: &[usize], labels: &[u8]) -> f64 {
    assert_eq!(predictions.len(), labels.len(), "length mismatch");
    assert!(!predictions.is_empty(), "empty evaluation");
    let hits = predictions
        .iter()
        .zip(labels)
        .filter(|(p, l)| **p == **l as usize)
        .count();
    hits as f64 / predictions.len() as f64
}

/// The paper's consistency metric (Table 3): the fraction of samples on
/// which two platforms predict the *same* label, correct or not.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
///
/// # Examples
///
/// ```
/// use sushi_snn::consistency;
/// assert_eq!(consistency(&[3, 1, 4], &[3, 2, 4]), 2.0 / 3.0);
/// ```
pub fn consistency(a: &[usize], b: &[usize]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    assert!(!a.is_empty(), "empty evaluation");
    let same = a.iter().zip(b).filter(|(x, y)| x == y).count();
    same as f64 / a.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_full_and_zero() {
        assert_eq!(accuracy(&[1, 2], &[1, 2]), 1.0);
        assert_eq!(accuracy(&[0, 0], &[1, 2]), 0.0);
    }

    #[test]
    fn consistency_is_symmetric() {
        let a = [1usize, 2, 3, 4];
        let b = [1usize, 9, 3, 0];
        assert_eq!(consistency(&a, &b), consistency(&b, &a));
        assert_eq!(consistency(&a, &b), 0.5);
    }

    #[test]
    fn consistency_counts_shared_errors() {
        // Both wrong in the same way: consistent but inaccurate.
        let preds_a = [7usize];
        let preds_b = [7usize];
        let labels = [3u8];
        assert_eq!(consistency(&preds_a, &preds_b), 1.0);
        assert_eq!(accuracy(&preds_a, &labels), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = accuracy(&[1], &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_accuracy_panics() {
        let _ = accuracy(&[], &[]);
    }
}
