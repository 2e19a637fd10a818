//! Borrowed-slice JSON: the zero-copy half of the reader.
//!
//! [`Value`] here is the same tree as [`crate::Value`] except that every
//! string — member keys and string values alike — is a [`Cow`] pointing
//! straight into the input buffer. On the service's hot decode path
//! (request lines that contain no escape sequences, which is every line
//! the workspace's own writer emits) a parse allocates only the tree's
//! vectors: zero per-field `String`s. Escaped strings fall back to an
//! owned `Cow` transparently.
//!
//! [`Cur`] is the decoding cursor — the only one. It links to its parent
//! on the stack and renders the path only when a decode actually fails —
//! the success path touches the allocator not at all. The trade-off is
//! lexical: a child cursor borrows its parent, so intermediate cursors
//! must be `let`-bound rather than chained across statements.
//! [`Cur::arr`] reports `key[index]` paths for array elements.

use crate::{num_to_u64, DecodeError};
use std::borrow::Cow;

/// A parsed JSON value borrowing string content from the input.
#[derive(Debug, Clone, PartialEq)]
pub enum Value<'a> {
    Null,
    Bool(bool),
    Num(f64),
    Str(Cow<'a, str>),
    Arr(Vec<Value<'a>>),
    Obj(Vec<(Cow<'a, str>, Value<'a>)>),
}

impl<'a> Value<'a> {
    /// Object member lookup.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value<'a>> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// Integral numbers in the double-exact range `0..2^53`, exactly as
    /// [`crate::Value::as_u64`].
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(v) => num_to_u64(*v),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Detaches the tree from the input buffer, yielding the owned
    /// [`crate::Value`] the rest of the workspace speaks.
    #[must_use]
    pub fn into_owned(self) -> crate::Value {
        match self {
            Value::Null => crate::Value::Null,
            Value::Bool(b) => crate::Value::Bool(b),
            Value::Num(v) => crate::Value::Num(v),
            Value::Str(s) => crate::Value::Str(s.into_owned()),
            Value::Arr(items) => {
                crate::Value::Arr(items.into_iter().map(Value::into_owned).collect())
            }
            Value::Obj(members) => crate::Value::Obj(
                members
                    .into_iter()
                    .map(|(k, v)| (k.into_owned(), v.into_owned()))
                    .collect(),
            ),
        }
    }
}

/// An allocation-free decoding cursor over a borrowed [`Value`].
///
/// Each cursor links back to the cursor it was derived from; the
/// `/`-separated path a [`DecodeError`] reports is reconstructed by
/// walking that chain, so no path string exists until a decode fails.
#[derive(Debug, Clone, Copy)]
pub struct Cur<'c, 'a> {
    value: &'c Value<'a>,
    /// Path segment this cursor was reached through (`None` at the root).
    seg: Option<Seg<'c>>,
    parent: Option<&'c Cur<'c, 'a>>,
}

/// One step of a cursor's path: an object member or an array index.
#[derive(Debug, Clone, Copy)]
enum Seg<'c> {
    Key(&'c str),
    Index(usize),
}

impl<'c, 'a> Cur<'c, 'a> {
    /// A cursor at the document root.
    #[must_use]
    pub fn root(value: &'c Value<'a>) -> Cur<'c, 'a> {
        Cur {
            value,
            seg: None,
            parent: None,
        }
    }

    #[must_use]
    pub fn value(&self) -> &'c Value<'a> {
        self.value
    }

    /// Renders the `/`-separated path from the root. Allocates — called
    /// on error paths only.
    #[must_use]
    pub fn path(&self) -> String {
        let mut segs = Vec::new();
        let mut at = Some(self);
        while let Some(c) = at {
            if let Some(s) = c.seg {
                segs.push(s);
            }
            at = c.parent;
        }
        segs.reverse();
        let mut out = String::new();
        for s in segs {
            match s {
                Seg::Key(k) => {
                    if !out.is_empty() {
                        out.push('/');
                    }
                    out.push_str(k);
                }
                Seg::Index(i) => {
                    out.push('[');
                    out.push_str(&i.to_string());
                    out.push(']');
                }
            }
        }
        out
    }

    /// Builds a [`DecodeError`] at this cursor's path. Public so typed
    /// decoders (enum matches in `m3d-flow`) can report their own
    /// expectations.
    #[must_use]
    pub fn err(&self, expected: impl Into<String>) -> DecodeError {
        DecodeError {
            path: self.path(),
            expected: expected.into(),
        }
    }

    /// Required object member.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when `self` is not an object or the key
    /// is absent.
    pub fn get<'s>(&'s self, key: &'s str) -> Result<Cur<'s, 'a>, DecodeError> {
        match self.value {
            Value::Obj(_) => match self.value.get(key) {
                Some(v) => Ok(Cur {
                    value: v,
                    seg: Some(Seg::Key(key)),
                    parent: Some(self),
                }),
                None => Err(self.err(format!("member `{key}`"))),
            },
            _ => Err(self.err("an object")),
        }
    }

    /// Optional object member (`None` when absent or explicitly null).
    #[must_use]
    pub fn opt<'s>(&'s self, key: &'s str) -> Option<Cur<'s, 'a>> {
        match self.value.get(key) {
            None | Some(Value::Null) => None,
            Some(v) => Some(Cur {
                value: v,
                seg: Some(Seg::Key(key)),
                parent: Some(self),
            }),
        }
    }

    /// Array elements, each with an indexed path segment (`key[index]`).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when the value is not an array.
    pub fn arr<'s>(&'s self) -> Result<Vec<Cur<'s, 'a>>, DecodeError> {
        match self.value {
            Value::Arr(items) => Ok(items
                .iter()
                .enumerate()
                .map(|(i, v)| Cur {
                    value: v,
                    seg: Some(Seg::Index(i)),
                    parent: Some(self),
                })
                .collect()),
            _ => Err(self.err("an array")),
        }
    }

    /// # Errors
    ///
    /// Returns a [`DecodeError`] when the value is not a finite number.
    pub fn f64(&self) -> Result<f64, DecodeError> {
        self.value
            .as_f64()
            .filter(|v| v.is_finite())
            .ok_or_else(|| self.err("a finite number"))
    }

    /// # Errors
    ///
    /// Returns a [`DecodeError`] when the value is not a non-negative
    /// integral number below 2^53 (the double-exact range).
    pub fn u64(&self) -> Result<u64, DecodeError> {
        self.value
            .as_u64()
            .ok_or_else(|| self.err("a non-negative integer below 2^53"))
    }

    /// # Errors
    ///
    /// Returns a [`DecodeError`] when the value is not a non-negative
    /// integral number that fits `usize`.
    pub fn usize(&self) -> Result<usize, DecodeError> {
        self.u64().map(|v| v as usize)
    }

    /// # Errors
    ///
    /// Returns a [`DecodeError`] when the value is not a string.
    pub fn str(&self) -> Result<&'c str, DecodeError> {
        match self.value {
            Value::Str(s) => Ok(s),
            _ => Err(self.err("a string")),
        }
    }

    /// # Errors
    ///
    /// Returns a [`DecodeError`] when the value is not a boolean.
    pub fn bool(&self) -> Result<bool, DecodeError> {
        self.value.as_bool().ok_or_else(|| self.err("a boolean"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_borrowed;

    #[test]
    fn escape_free_strings_borrow_from_the_input() {
        let src = r#"{"benchmark": "aes", "n": 3, "nested": {"k": "v"}}"#;
        let v = parse_borrowed(src).expect("parse");
        let Value::Obj(members) = &v else {
            panic!("expected object")
        };
        assert!(members.iter().all(|(k, _)| matches!(k, Cow::Borrowed(_))));
        match v.get("benchmark") {
            Some(Value::Str(Cow::Borrowed(s))) => assert_eq!(*s, "aes"),
            other => panic!("expected borrowed str, got {other:?}"),
        }
        let nested = v.get("nested").expect("nested");
        match nested.get("k") {
            Some(Value::Str(Cow::Borrowed(s))) => assert_eq!(*s, "v"),
            other => panic!("expected borrowed str, got {other:?}"),
        }
    }

    #[test]
    fn escaped_strings_fall_back_to_owned() {
        let v = parse_borrowed(r#"{"s": "a\nb"}"#).expect("parse");
        match v.get("s") {
            Some(Value::Str(Cow::Owned(s))) => assert_eq!(s, "a\nb"),
            other => panic!("expected owned str, got {other:?}"),
        }
        // A partial prefix before the escape survives.
        let v = parse_borrowed(r#""prefix\tsuffix""#).expect("parse");
        assert_eq!(v.as_str(), Some("prefix\tsuffix"));
    }

    #[test]
    fn into_owned_detaches_every_kind_of_value() {
        let src = r#"{
  "id": 42, "ok": true, "x": null, "ratio": 0.30000000000000004,
  "s": "plain", "esc": "a\"b\\cA😀",
  "arr": [1, "two", {"three": 3}]
}"#;
        let expected = crate::Obj::new()
            .put("id", 42u64)
            .put("ok", true)
            .put("x", crate::Value::Null)
            .put("ratio", 0.1 + 0.2)
            .put("s", "plain")
            .put("esc", "a\"b\\cA😀")
            .put(
                "arr",
                vec![
                    crate::Value::Num(1.0),
                    crate::Value::from("two"),
                    crate::Obj::new().put("three", 3u64).build(),
                ],
            )
            .build();
        let borrowed = parse_borrowed(src).expect("borrowed parse");
        assert_eq!(borrowed.into_owned(), expected);
    }

    #[test]
    fn cursor_reports_paths_without_allocating_until_failure() {
        let src = r#"{"options": {"placer": {"iterations": "twelve"}}}"#;
        let v = parse_borrowed(src).expect("parse");
        let root = Cur::root(&v);
        let options = root.get("options").expect("options");
        let placer = options.get("placer").expect("placer");
        let err = placer.get("iterations").expect("member").u64().unwrap_err();
        assert_eq!(err.path, "options/placer/iterations");
        assert!(err.to_string().contains("non-negative integer"));
        let missing = placer.get("nope").unwrap_err();
        assert_eq!(missing.path, "options/placer");
        assert!(missing.to_string().contains("`nope`"));
    }

    #[test]
    fn array_elements_report_indexed_paths() {
        let src = r#"{"command": {"configs": ["a", 7, "c"]}}"#;
        let v = parse_borrowed(src).expect("parse");
        let root = Cur::root(&v);
        let command = root.get("command").expect("command");
        let configs = command.get("configs").expect("configs");
        let items = configs.arr().expect("array");
        assert_eq!(items.len(), 3);
        let err = items[1].str().unwrap_err();
        assert_eq!(err.path, "command/configs[1]");
        let not_array = command.get("configs").expect("configs");
        let items = not_array.arr().expect("array");
        assert!(items[0].arr().is_err());
    }
}
