//! Order statistics used for every reported number.

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1); 0 for an
/// empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Interquartile mean: the mean of what is left of `v` when the lowest
/// and the highest quarter are set aside. It stays put while up to a
/// quarter of the values are disturbed on either side, and where a median
/// would jump from one group of values to another it moves by degrees.
pub fn midmean(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    let trim = s.len() / 4;
    mean(&s[trim..s.len() - trim])
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The three quartile cut points, exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// gives them; needs at least two values.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    let s = sorted(v.to_vec());
    let (n, ld) = (4usize, s.len());
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld + 1;
    let mut out = [0.0; 3];
    for i in 1..n {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        out[i - 1] = (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 5.0);
        let twelve: Vec<f64> = (1..=12).rev().map(f64::from).collect();
        assert_eq!(midmean(&twelve), 6.5);
        assert_eq!(midmean(&[1.0, 2.0, 4.0, 100.0]), 3.0);
        assert_eq!(midmean(&[5.0]), 5.0);
    }
}
