//! Normalized low-pass prototype element values (g-values).

/// Butterworth (maximally flat) prototype values `g₁…gₙ`, with both
/// terminations equal to 1 (gₙ₊₁ = 1 implied).
///
/// # Panics
///
/// Panics for order 0.
///
/// # Examples
///
/// ```
/// use ipass_rf::butterworth_g;
///
/// let g = butterworth_g(2);
/// assert!((g[0] - std::f64::consts::SQRT_2).abs() < 1e-12);
/// assert!((g[1] - std::f64::consts::SQRT_2).abs() < 1e-12);
/// ```
pub fn butterworth_g(order: usize) -> Vec<f64> {
    assert!(order >= 1, "filter order must be at least 1");
    (1..=order)
        .map(|k| 2.0 * ((2.0 * k as f64 - 1.0) * std::f64::consts::PI / (2.0 * order as f64)).sin())
        .collect()
}

/// Chebyshev (equal-ripple) prototype values `g₁…gₙ` for a passband
/// ripple in dB. The source termination is 1; the load termination is
/// returned by [`chebyshev_load_g`] (≠ 1 for even orders).
///
/// # Panics
///
/// Panics for order 0 or non-positive ripple.
///
/// # Examples
///
/// ```
/// use ipass_rf::chebyshev_g;
///
/// // Matthaei/Young/Jones Table 4.05-2(a): n=2, 0.5 dB ripple.
/// let g = chebyshev_g(2, 0.5);
/// assert!((g[0] - 1.4029).abs() < 1e-3);
/// assert!((g[1] - 0.7071).abs() < 1e-3);
/// ```
pub fn chebyshev_g(order: usize, ripple_db: f64) -> Vec<f64> {
    assert!(order >= 1, "filter order must be at least 1");
    assert!(
        ripple_db > 0.0 && ripple_db.is_finite(),
        "ripple must be positive dB, got {ripple_db}"
    );
    let n = order as f64;
    let beta = (ripple_db / 17.37).tanh().recip().ln();
    let gamma = (beta / (2.0 * n)).sinh();
    let a: Vec<f64> = (1..=order)
        .map(|k| ((2.0 * k as f64 - 1.0) * std::f64::consts::PI / (2.0 * n)).sin())
        .collect();
    let b: Vec<f64> = (1..=order)
        .map(|k| gamma * gamma + ((k as f64) * std::f64::consts::PI / n).sin().powi(2))
        .collect();
    let mut g = Vec::with_capacity(order);
    g.push(2.0 * a[0] / gamma);
    for k in 1..order {
        let prev = g[k - 1];
        g.push(4.0 * a[k - 1] * a[k] / (b[k - 1] * prev));
    }
    g
}

/// The load termination gₙ₊₁ of the Chebyshev prototype: 1 for odd
/// orders, `coth²(β/4)` for even orders.
///
/// # Panics
///
/// Panics for order 0 or non-positive ripple.
///
/// # Examples
///
/// ```
/// use ipass_rf::chebyshev_load_g;
///
/// assert!((chebyshev_load_g(3, 0.5) - 1.0).abs() < 1e-12);
/// // n=2, 0.5 dB: the classic 1.9841 mismatch.
/// assert!((chebyshev_load_g(2, 0.5) - 1.9841).abs() < 1e-3);
/// ```
pub fn chebyshev_load_g(order: usize, ripple_db: f64) -> f64 {
    assert!(order >= 1, "filter order must be at least 1");
    assert!(
        ripple_db > 0.0 && ripple_db.is_finite(),
        "ripple must be positive dB, got {ripple_db}"
    );
    if order % 2 == 1 {
        1.0
    } else {
        let beta = (ripple_db / 17.37).tanh().recip().ln();
        (beta / 4.0).tanh().recip().powi(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn butterworth_known_orders() {
        // n=3: 1, 2, 1.
        let g = butterworth_g(3);
        assert!((g[0] - 1.0).abs() < 1e-12);
        assert!((g[1] - 2.0).abs() < 1e-12);
        assert!((g[2] - 1.0).abs() < 1e-12);
        // n=5 middle element = 2.
        let g5 = butterworth_g(5);
        assert!((g5[2] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn chebyshev_published_tables() {
        // Matthaei/Young/Jones, 0.5 dB ripple.
        let g3 = chebyshev_g(3, 0.5);
        assert!((g3[0] - 1.5963).abs() < 1e-3);
        assert!((g3[1] - 1.0967).abs() < 1e-3);
        assert!((g3[2] - 1.5963).abs() < 1e-3);
        // 0.2 dB ripple, n=3.
        let g = chebyshev_g(3, 0.2);
        assert!((g[0] - 1.2275).abs() < 1e-3);
        assert!((g[1] - 1.1525).abs() < 1e-3);
        assert!((g[2] - 1.2275).abs() < 1e-3);
        // 0.1 dB ripple, n=2.
        let g2 = chebyshev_g(2, 0.1);
        assert!((g2[0] - 0.8431).abs() < 1e-3);
        assert!((g2[1] - 0.6220).abs() < 1e-3);
    }

    #[test]
    fn odd_chebyshev_is_symmetric() {
        let g = chebyshev_g(5, 0.5);
        assert!((g[0] - g[4]).abs() < 1e-9);
        assert!((g[1] - g[3]).abs() < 1e-9);
    }

    #[test]
    fn load_terminations() {
        assert_eq!(chebyshev_load_g(3, 0.5), 1.0);
        assert!((chebyshev_load_g(2, 0.1) - 1.3554).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "order")]
    fn zero_order_rejected() {
        let _ = butterworth_g(0);
    }

    #[test]
    #[should_panic(expected = "ripple")]
    fn zero_ripple_rejected() {
        let _ = chebyshev_g(3, 0.0);
    }

    proptest! {
        #[test]
        fn butterworth_symmetry_and_positivity(n in 1usize..12) {
            let g = butterworth_g(n);
            prop_assert_eq!(g.len(), n);
            for k in 0..n {
                prop_assert!(g[k] > 0.0);
                prop_assert!((g[k] - g[n - 1 - k]).abs() < 1e-9);
            }
        }

        #[test]
        fn chebyshev_positive(n in 1usize..12, ripple in 0.01f64..3.0) {
            for v in chebyshev_g(n, ripple) {
                prop_assert!(v > 0.0 && v.is_finite());
            }
            prop_assert!(chebyshev_load_g(n, ripple) >= 1.0);
        }

        #[test]
        fn higher_ripple_raises_g1(n in 2usize..10) {
            let low = chebyshev_g(n, 0.1)[0];
            let high = chebyshev_g(n, 1.0)[0];
            prop_assert!(high > low);
        }
    }
}
