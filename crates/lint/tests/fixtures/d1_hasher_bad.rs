//! D1 fixture: a custom hasher changes the hash, not the rule. The
//! three-parameter type and the `default()` / `with_hasher` constructors
//! are tracked like `HashMap<K, V>` and `HashMap::new()`.
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

type IdHash = BuildHasherDefault<std::collections::hash_map::DefaultHasher>;

pub struct Book {
    voqs: HashMap<u32, u64, IdHash>,
}

pub fn total(b: &Book) -> u64 {
    let mut sum = 0;
    for v in b.voqs.values() {
        sum += v;
    }
    let by_default = HashMap::default();
    for (_k, v) in &by_default {
        sum += v;
    }
    let with_hasher = HashMap::with_hasher(IdHash::default());
    for v in with_hasher.values() {
        sum += v;
    }
    sum
}
