//! D1 fixture: the allow-directive attaches to a three-parameter
//! declaration exactly as it does to `HashMap<K, V>`.
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

type IdHash = BuildHasherDefault<std::collections::hash_map::DefaultHasher>;

pub struct Book {
    // det-lint: allow(unordered-iter, keyed access only; never iterated)
    voqs: HashMap<u32, u64, IdHash>,
}

pub fn book() -> Book {
    Book {
        voqs: HashMap::default(),
    }
}
