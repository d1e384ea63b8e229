//! The [`Json`] value tree and its constructors / accessors.

/// A parsed or under-construction JSON document.
///
/// Objects preserve insertion order (a plain `Vec` of pairs — the
/// documents in this workspace are small and ordered output diffs
/// cleanly); key lookup is linear.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (see the crate docs for the f32 round-trip policy).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: ordered key → value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>, const N: usize>(pairs: [(K, Json); N]) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Append a key → value pair. No-op unless `self` is an object.
    pub fn insert(&mut self, key: impl Into<String>, value: Json) {
        if let Json::Obj(pairs) = self {
            pairs.push((key.into(), value));
        }
    }

    /// Object field lookup (first match; `None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric payload, if this is a `Num`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric payload narrowed to `f32`.
    pub fn as_f32(&self) -> Option<f32> {
        self.as_f64().map(|v| v as f32)
    }

    /// The numeric payload as a `usize`, if it is a non-negative integer.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= usize::MAX as f64 => {
                Some(*v as usize)
            }
            _ => None,
        }
    }

    /// The string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element list, if this is an `Arr`.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key → value pairs, if this is an `Obj`.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<f32> for Json {
    fn from(v: f32) -> Json {
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Json {
        Json::Arr(iter.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_match_variants() {
        let doc = Json::obj([
            ("b", Json::from(true)),
            ("n", Json::from(1.5f32)),
            ("i", Json::from(7usize)),
            ("s", Json::from("hi")),
            ("a", Json::from_iter([1.0f32, 2.0])),
        ]);
        assert_eq!(doc.get("b"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("n").unwrap().as_f32(), Some(1.5));
        assert_eq!(doc.get("i").unwrap().as_usize(), Some(7));
        assert_eq!(doc.get("s").unwrap().as_str(), Some("hi"));
        assert_eq!(doc.get("a").unwrap().as_array().unwrap().len(), 2);
        assert!(doc.get("missing").is_none());
        assert_eq!(doc.as_object().unwrap().len(), 5);
    }

    #[test]
    fn as_usize_rejects_fractions_and_negatives() {
        assert_eq!(Json::Num(2.5).as_usize(), None);
        assert_eq!(Json::Num(-1.0).as_usize(), None);
        assert_eq!(Json::Num(0.0).as_usize(), Some(0));
    }

    #[test]
    fn insert_extends_objects_only() {
        let mut o = Json::obj::<&str, 0>([]);
        o.insert("k", Json::Null);
        assert_eq!(o.get("k"), Some(&Json::Null));
        let mut not_obj = Json::Null;
        not_obj.insert("k", Json::Null);
        assert_eq!(not_obj, Json::Null);
    }
}
