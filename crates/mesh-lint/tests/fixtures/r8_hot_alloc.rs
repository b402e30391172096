//! Known-bad fixture for R8: four allocating calls and five buffer-growth
//! calls inside a marked hot region; `push` into the grown buffer and the
//! identical calls outside the region stay legal.

// mesh-lint: hot(fixture-loop)
pub fn hot(xs: &[u32], buf: &mut Vec<u32>) -> Vec<u32> {
    let mut out = Vec::new();
    let s = format!("{}", xs.len());
    let copied = xs.to_vec();
    let _twice = copied.clone();
    buf.resize(xs.len(), 0);
    buf.reserve(xs.len());
    buf.reserve_exact(xs.len());
    buf.extend(xs.iter().copied());
    buf.extend_from_slice(xs);
    out.push(s.len() as u32);
    out
}
// mesh-lint: end-hot

pub fn cold(xs: &[u32]) -> Vec<u32> {
    let mut v = Vec::new();
    v.extend_from_slice(xs);
    v
}
