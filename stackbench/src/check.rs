//! Answer checking. Every value the index returns is compared with the
//! generator's: [`datasets::gen::value_for`] for loaded keys and the
//! value the stream inserted for held-back keys.

use crate::inputs::SCAN_LEN;
use datasets::gen::value_for;

/// Knows which keys are loaded and which may have been inserted.
#[derive(Clone, Copy)]
pub struct Checker<'a> {
    loaded: &'a [(u64, u64)],
    held: &'a [(u64, u64)],
}

impl<'a> Checker<'a> {
    /// A checker over sorted loaded pairs and the sorted held-back pairs
    /// the streams insert.
    pub fn new(loaded: &'a [(u64, u64)], held: &'a [(u64, u64)]) -> Self {
        Checker { loaded, held }
    }

    /// A `get` of a loaded key.
    pub fn get(&self, key: u64, got: Option<u64>) -> Result<(), String> {
        if got == Some(value_for(key)) {
            Ok(())
        } else {
            Err(format!(
                "get({key}) returned {got:?}, expected {:?}",
                Some(value_for(key))
            ))
        }
    }

    /// A `get` of a key the run inserted.
    pub fn get_inserted(&self, key: u64, got: Option<u64>) -> Result<(), String> {
        let want = self
            .held
            .binary_search_by_key(&key, |p| p.0)
            .ok()
            .map(|i| self.held[i].1);
        if want.is_some() && got == want {
            Ok(())
        } else {
            Err(format!(
                "get({key}) of an inserted key returned {got:?}, expected {want:?}"
            ))
        }
    }

    /// A `get_batch` over loaded keys.
    pub fn batch(&self, keys: &[u64], out: &[Option<u64>]) -> Result<(), String> {
        keys.iter().zip(out).try_for_each(|(&k, &v)| self.get(k, v))
    }

    /// A `scan(SCAN_LEN)` from the loaded key `start`: ascending keys that
    /// begin at `start`, every loaded key in the covered range present,
    /// every other key a held-back one, every value right, and
    /// `min(SCAN_LEN, remaining)` entries.
    pub fn scan(&self, start: u64, out: &[(u64, u64)]) -> Result<(), String> {
        let fail = |why: String| Err(format!("scan({start}, {SCAN_LEN}): {why}"));
        let Ok(mut li) = self.loaded.binary_search_by_key(&start, |p| p.0) else {
            return fail("start key is not a loaded key".into());
        };
        let loaded_left = self.loaded.len() - li;
        if out.len() > SCAN_LEN || out.len() < SCAN_LEN.min(loaded_left) {
            return fail(format!(
                "{} entries, {loaded_left} loaded keys remain",
                out.len()
            ));
        }
        if out.first().map(|e| e.0) != Some(start) {
            return fail(format!("first entry {:?}", out.first()));
        }
        let mut hi = self.held.partition_point(|h| h.0 < start);
        let mut prev = None;
        for &(k, v) in out {
            if prev.is_some_and(|p| p >= k) {
                return fail(format!("key {k} after {prev:?}: not ascending"));
            }
            prev = Some(k);
            match self.loaded.get(li) {
                Some(&(lk, lv)) if lk == k => {
                    if v != lv {
                        return fail(format!("key {k} carries {v}, expected {lv}"));
                    }
                    li += 1;
                    continue;
                }
                Some(&(lk, _)) if lk < k => {
                    return fail(format!("loaded key {lk} missing before {k}"));
                }
                _ => {}
            }
            while self.held.get(hi).is_some_and(|h| h.0 < k) {
                hi += 1;
            }
            match self.held.get(hi) {
                Some(&(hk, hv)) if hk == k => {
                    if v != hv {
                        return fail(format!("inserted key {k} carries {v}, expected {hv}"));
                    }
                }
                _ => return fail(format!("key {k} was never loaded or inserted")),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_check_catches_gaps_and_bad_values() {
        let loaded: Vec<(u64, u64)> = (1..=300u64).map(|k| (k * 10, value_for(k * 10))).collect();
        let held = [(15u64, 1515u64), (25, 2525)];
        let c = Checker::new(&loaded, &held);
        let mut out: Vec<(u64, u64)> = loaded[0..SCAN_LEN].to_vec();
        assert!(c.scan(10, &out).is_ok());
        out.insert(1, held[0]);
        out.pop();
        assert!(c.scan(10, &out).is_ok());
        out[1].1 ^= 1;
        assert!(c.scan(10, &out).is_err());
        let mut gap = loaded[0..SCAN_LEN + 1].to_vec();
        gap.remove(3);
        assert!(c.scan(10, &gap).is_err());
        assert!(c.scan(10, &loaded[0..SCAN_LEN - 1]).is_err());
        let tail = &loaded[loaded.len() - 5..];
        assert!(c.scan(tail[0].0, tail).is_ok());
    }
}
