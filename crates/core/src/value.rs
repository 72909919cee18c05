//! The dynamic [`Value`] type.
//!
//! Java's Naplet carries arbitrary serializable objects in its
//! `NapletState`, passes them through service channels and mails them
//! between agents. Rust has no runtime object model, so the framework
//! uses one dynamic value type everywhere an "arbitrary serializable
//! object" appears in the paper: agent state entries, user messages,
//! service-channel payloads, VM operands and SNMP variable bindings.

use std::collections::BTreeMap;
use std::fmt;

use crate::codec::{Decode, Encode};

use crate::error::{NapletError, Result};

/// A dynamically typed, serializable value.
///
/// Maps use `BTreeMap` so serialization (and therefore traffic
/// accounting and signatures) is deterministic.
#[derive(Debug, Clone, PartialEq, Encode, Decode, Default)]
pub enum Value {
    /// Absence of a value.
    #[default]
    Nil,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Raw bytes.
    Bytes(Vec<u8>),
    /// Ordered list.
    List(Vec<Value>),
    /// String-keyed map with deterministic ordering.
    Map(BTreeMap<String, Value>),
}

impl Value {
    /// Human-readable type name used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Nil => "nil",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
            Value::Bytes(_) => "bytes",
            Value::List(_) => "list",
            Value::Map(_) => "map",
        }
    }

    /// Truthiness used by the VM and by itinerary guard conditions:
    /// nil, false, 0, 0.0, "" and empty collections are falsy.
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Nil => false,
            Value::Bool(b) => *b,
            Value::Int(i) => *i != 0,
            Value::Float(f) => *f != 0.0,
            Value::Str(s) => !s.is_empty(),
            Value::Bytes(b) => !b.is_empty(),
            Value::List(l) => !l.is_empty(),
            Value::Map(m) => !m.is_empty(),
        }
    }

    /// Integer view, or a typed error.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(type_err("int", other)),
        }
    }

    /// Float view; ints widen losslessly when possible.
    pub fn as_float(&self) -> Result<f64> {
        match self {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            other => Err(type_err("float", other)),
        }
    }

    /// String view, or a typed error.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(type_err("str", other)),
        }
    }

    /// Bool view, or a typed error.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(type_err("bool", other)),
        }
    }

    /// List view, or a typed error.
    pub fn as_list(&self) -> Result<&[Value]> {
        match self {
            Value::List(l) => Ok(l),
            other => Err(type_err("list", other)),
        }
    }

    /// Map view, or a typed error.
    pub fn as_map(&self) -> Result<&BTreeMap<String, Value>> {
        match self {
            Value::Map(m) => Ok(m),
            other => Err(type_err("map", other)),
        }
    }

    /// Mutable map view, or a typed error.
    pub fn as_map_mut(&mut self) -> Result<&mut BTreeMap<String, Value>> {
        match self {
            Value::Map(m) => Ok(m),
            other => Err(type_err("map", other)),
        }
    }

    /// Deep approximate in-memory footprint in bytes, used by the
    /// NapletMonitor's memory budget (paper §5.2). The estimate counts
    /// payload bytes plus a fixed per-node overhead; it intentionally
    /// over-approximates rather than under-approximates.
    pub fn deep_size(&self) -> u64 {
        const NODE: u64 = 16;
        match self {
            Value::Nil | Value::Bool(_) | Value::Int(_) | Value::Float(_) => NODE,
            Value::Str(s) => NODE + s.len() as u64,
            Value::Bytes(b) => NODE + b.len() as u64,
            Value::List(l) => NODE + l.iter().map(Value::deep_size).sum::<u64>(),
            Value::Map(m) => {
                NODE + m
                    .iter()
                    .map(|(k, v)| k.len() as u64 + v.deep_size())
                    .sum::<u64>()
            }
        }
    }

    /// Convenience constructor for maps.
    pub fn map<I, K>(entries: I) -> Value
    where
        I: IntoIterator<Item = (K, Value)>,
        K: Into<String>,
    {
        Value::Map(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Convenience constructor for lists.
    pub fn list<I: IntoIterator<Item = Value>>(items: I) -> Value {
        Value::List(items.into_iter().collect())
    }

    /// Index into a map value by key (Nil when missing).
    pub fn get(&self, key: &str) -> Value {
        match self {
            Value::Map(m) => m.get(key).cloned().unwrap_or(Value::Nil),
            _ => Value::Nil,
        }
    }
}

fn type_err(wanted: &str, got: &Value) -> NapletError {
    NapletError::Internal(format!(
        "type error: wanted {wanted}, got {}",
        got.type_name()
    ))
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Nil => write!(f, "nil"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "bytes[{}]", b.len()),
            Value::List(l) => {
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Map(m) => {
                write!(f, "{{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v.into())
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v.into())
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(v)
    }
}
impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::List(v)
    }
}
impl<V: Into<Value>> FromIterator<V> for Value {
    fn from_iter<T: IntoIterator<Item = V>>(iter: T) -> Self {
        Value::List(iter.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec;

    #[test]
    fn truthiness() {
        assert!(!Value::Nil.is_truthy());
        assert!(!Value::Bool(false).is_truthy());
        assert!(Value::Bool(true).is_truthy());
        assert!(!Value::Int(0).is_truthy());
        assert!(Value::Int(-1).is_truthy());
        assert!(!Value::Str(String::new()).is_truthy());
        assert!(Value::Str("x".into()).is_truthy());
        assert!(!Value::list([]).is_truthy());
        assert!(Value::list([Value::Nil]).is_truthy());
    }

    #[test]
    fn typed_views() {
        assert_eq!(Value::Int(3).as_int().unwrap(), 3);
        assert_eq!(Value::Int(3).as_float().unwrap(), 3.0);
        assert_eq!(Value::Float(2.5).as_float().unwrap(), 2.5);
        assert!(Value::Str("x".into()).as_int().is_err());
        assert_eq!(Value::from("hi").as_str().unwrap(), "hi");
        assert!(Value::Nil.as_map().is_err());
    }

    #[test]
    fn deep_size_monotone_in_content() {
        let small = Value::from("ab");
        let big = Value::from("abcdefgh");
        assert!(big.deep_size() > small.deep_size());
        let list = Value::list([small.clone(), big.clone()]);
        assert!(list.deep_size() > small.deep_size() + big.deep_size() - 1);
    }

    #[test]
    fn map_get() {
        let m = Value::map([("a", Value::Int(1)), ("b", Value::from("x"))]);
        assert_eq!(m.get("a"), Value::Int(1));
        assert_eq!(m.get("missing"), Value::Nil);
        assert_eq!(Value::Int(1).get("a"), Value::Nil);
    }

    #[test]
    fn display_forms() {
        let v = Value::map([
            ("n", Value::Int(3)),
            ("l", Value::list([Value::Bool(true), Value::Nil])),
        ]);
        assert_eq!(v.to_string(), "{l: [true, nil], n: 3}");
    }

    #[test]
    fn codec_round_trip() {
        let v = Value::map([
            ("id", Value::from("czxu@ece:0:0")),
            ("readings", Value::list([Value::Float(0.5), Value::Int(9)])),
            ("blob", Value::Bytes(vec![1, 2, 3])),
        ]);
        let bytes = codec::to_bytes(&v).unwrap();
        let back: Value = codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn from_iterator_collects_list() {
        let v: Value = (0..3i64).collect();
        assert_eq!(
            v,
            Value::list([Value::Int(0), Value::Int(1), Value::Int(2)])
        );
    }
}
