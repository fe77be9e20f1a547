//! Accuracy metrics used throughout the paper's evaluation.
//!
//! Table I and §V.B report **MAPE** (mean absolute percentage error) and
//! **PAPE** (peak absolute percentage error) between the surrogate's
//! temperature field and the reference solver's, element-wise over the
//! full grid, with temperatures in Kelvin.

use crate::DeepOHeatError;

/// Element-wise accuracy summary of a predicted field against a
/// reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FieldErrors {
    /// Mean absolute percentage error, in percent.
    pub mape: f64,
    /// Peak absolute percentage error, in percent.
    pub pape: f64,
    /// Mean absolute error in Kelvin.
    pub mean_abs: f64,
    /// Peak absolute error in Kelvin.
    pub peak_abs: f64,
}

impl FieldErrors {
    /// Compares `predicted` against `reference` element-wise.
    ///
    /// # Errors
    ///
    /// Returns [`DeepOHeatError::InputMismatch`] if the lengths differ or
    /// the inputs are empty, and [`DeepOHeatError::InvalidConfig`] if a
    /// reference value is zero (percentage errors are undefined).
    pub fn compare(predicted: &[f64], reference: &[f64]) -> Result<Self, DeepOHeatError> {
        if predicted.len() != reference.len() || predicted.is_empty() {
            return Err(DeepOHeatError::InputMismatch {
                what: format!(
                    "field comparison needs equal non-empty lengths, got {} vs {}",
                    predicted.len(),
                    reference.len()
                ),
            });
        }
        let mut sum_pct = 0.0;
        let mut peak_pct: f64 = 0.0;
        let mut sum_abs = 0.0;
        let mut peak_abs: f64 = 0.0;
        for (&p, &r) in predicted.iter().zip(reference) {
            if r == 0.0 {
                return Err(DeepOHeatError::InvalidConfig {
                    what: "reference field contains zeros; percentage error undefined".into(),
                });
            }
            let abs = (p - r).abs();
            let pct = abs / r.abs() * 100.0;
            sum_abs += abs;
            sum_pct += pct;
            peak_abs = peak_abs.max(abs);
            peak_pct = peak_pct.max(pct);
        }
        let n = predicted.len() as f64;
        Ok(FieldErrors { mape: sum_pct / n, pape: peak_pct, mean_abs: sum_abs / n, peak_abs })
    }
}

/// Relative L2 error `‖p - r‖₂ / ‖r‖₂` — a common operator-learning
/// metric reported alongside MAPE in the experiment harnesses.
///
/// # Errors
///
/// Returns [`DeepOHeatError::InputMismatch`] for length mismatches or
/// empty inputs.
pub fn relative_l2(predicted: &[f64], reference: &[f64]) -> Result<f64, DeepOHeatError> {
    if predicted.len() != reference.len() || predicted.is_empty() {
        return Err(DeepOHeatError::InputMismatch {
            what: format!(
                "relative l2 needs equal non-empty lengths, got {} vs {}",
                predicted.len(),
                reference.len()
            ),
        });
    }
    let mut num = 0.0;
    let mut den = 0.0;
    for (&p, &r) in predicted.iter().zip(reference) {
        num += (p - r) * (p - r);
        den += r * r;
    }
    if den == 0.0 {
        return Err(DeepOHeatError::InvalidConfig {
            what: "reference field is identically zero".into(),
        });
    }
    Ok((num / den).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_prediction_has_zero_errors() {
        let r = vec![300.0, 310.0, 320.0];
        let e = FieldErrors::compare(&r, &r).unwrap();
        assert_eq!(e.mape, 0.0);
        assert_eq!(e.pape, 0.0);
        assert_eq!(e.mean_abs, 0.0);
        assert_eq!(e.peak_abs, 0.0);
        assert_eq!(relative_l2(&r, &r).unwrap(), 0.0);
    }

    #[test]
    fn known_percentages() {
        let reference = vec![100.0, 200.0];
        let predicted = vec![101.0, 198.0]; // 1% and 1% errors
        let e = FieldErrors::compare(&predicted, &reference).unwrap();
        assert!((e.mape - 1.0).abs() < 1e-12);
        assert!((e.pape - 1.0).abs() < 1e-12);
        assert!((e.mean_abs - 1.5).abs() < 1e-12);
        assert!((e.peak_abs - 2.0).abs() < 1e-12);
    }

    #[test]
    fn pape_picks_the_worst_point() {
        let reference = vec![100.0, 100.0, 100.0];
        let predicted = vec![100.0, 100.5, 103.0];
        let e = FieldErrors::compare(&predicted, &reference).unwrap();
        assert!((e.pape - 3.0).abs() < 1e-12);
        assert!((e.mape - 3.5 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn validation() {
        assert!(FieldErrors::compare(&[1.0], &[1.0, 2.0]).is_err());
        assert!(FieldErrors::compare(&[], &[]).is_err());
        assert!(FieldErrors::compare(&[1.0], &[0.0]).is_err());
        assert!(relative_l2(&[1.0], &[]).is_err());
        assert!(relative_l2(&[1.0], &[0.0]).is_err());
    }

    #[test]
    fn relative_l2_known_value() {
        let reference = vec![3.0, 4.0]; // norm 5
        let predicted = vec![3.0, 5.0]; // error norm 1
        assert!((relative_l2(&predicted, &reference).unwrap() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn near_zero_reference_inflates_but_stays_finite() {
        // Percentage errors against a tiny (but non-zero) reference are
        // legal: they blow up numerically but must stay finite, and PAPE
        // must pick up the inflated point.
        let reference = vec![1e-12, 300.0];
        let predicted = vec![1e-12 + 1e-6, 300.0];
        let e = FieldErrors::compare(&predicted, &reference).unwrap();
        assert!(e.mape.is_finite() && e.pape.is_finite());
        assert!(e.pape > 1e6, "1e-6 error on a 1e-12 reference is ~1e8 percent");
        assert!((e.peak_abs - 1e-6).abs() < 1e-18);
    }

    #[test]
    fn negative_references_use_magnitudes() {
        // The denominators are |r|, so sign-flipped fields give the same
        // percentages as their positive mirror.
        let e_pos = FieldErrors::compare(&[101.0, 198.0], &[100.0, 200.0]).unwrap();
        let e_neg = FieldErrors::compare(&[-101.0, -198.0], &[-100.0, -200.0]).unwrap();
        assert!((e_pos.mape - e_neg.mape).abs() < 1e-12);
        assert!((e_pos.pape - e_neg.pape).abs() < 1e-12);
    }

    #[test]
    fn nan_inputs_poison_the_means() {
        // A NaN prediction must poison the mean-based summaries (sums
        // propagate NaN), so a diverged surrogate can't report a clean
        // MAPE. The peaks use `f64::max`, which skips NaN — so the
        // means are the reliable diagnostic and this test pins that.
        let e = FieldErrors::compare(&[f64::NAN, 300.0], &[300.0, 300.0]).unwrap();
        assert!(e.mape.is_nan());
        assert!(e.mean_abs.is_nan());
        assert!(!e.pape.is_nan(), "max-based peak skips NaN by f64::max semantics");
        let l2 = relative_l2(&[f64::NAN, 300.0], &[300.0, 300.0]).unwrap();
        assert!(l2.is_nan());
    }

    #[test]
    fn single_element_fields_are_accepted() {
        let e = FieldErrors::compare(&[303.0], &[300.0]).unwrap();
        assert!((e.mape - 1.0).abs() < 1e-12);
        assert!((e.pape - 1.0).abs() < 1e-12);
        assert_eq!(e.mape, e.pape, "mean equals peak for a single point");
    }
}
