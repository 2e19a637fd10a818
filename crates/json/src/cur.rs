//! The decoding cursor — the only one. [`Cur`] links to its parent on
//! the stack and renders the path only when a decode actually fails —
//! the success path touches the allocator not at all. The trade-off is
//! lexical: a child cursor borrows its parent, so intermediate cursors
//! must be `let`-bound rather than chained across statements.
//! [`Cur::arr`] reports `key[index]` paths for array elements.

use crate::{DecodeError, Value};

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
