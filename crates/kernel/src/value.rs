//! Structured register words.
//!
//! Every shared register in the simulator holds a [`Value`]: a small,
//! recursively structured term. A uniform word type (instead of a generic
//! parameter) is what makes run *fingerprinting* — and therefore the bounded
//! model checker in `wfa-modelcheck` — possible: the global state of a run is
//! hashable, comparable and printable without any per-algorithm plumbing.
//!
//! `Value::Unit` plays the role of the paper's `⊥` (unwritten register,
//! non-participating input, undecided output).

use std::fmt;
use std::sync::Arc;

/// Identifier of a process (C-process or S-process) in a run.
///
/// Process identities are dense indices assigned by the
/// [`Executor`](crate::executor::Executor) in registration order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Pid(pub usize);

impl Pid {
    /// The index of this process.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A register word: a structured, hashable term.
///
/// The variants cover everything the paper's algorithms store in registers:
/// scalars, process identities, and records/sequences (as [`Value::Tuple`]).
///
/// # Examples
///
/// ```
/// use wfa_kernel::value::{Value, Pid};
/// let rec = Value::tuple([Value::Int(3), Value::Pid(Pid(1)), Value::Bool(true)]);
/// assert_eq!(rec.get(0).and_then(Value::as_int), Some(3));
/// assert!(!rec.is_unit());
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum Value {
    /// The paper's `⊥`: unwritten register / absent value.
    #[default]
    Unit,
    /// A boolean flag.
    Bool(bool),
    /// A signed integer (inputs, names, rounds, ballots, ...).
    Int(i64),
    /// A process identity.
    Pid(Pid),
    /// A record or sequence of values.
    ///
    /// The fields sit behind an [`Arc`] so cloning a `Value` — which the
    /// model checker does for every register write on every explored branch
    /// — is a reference-count bump, not a deep copy.
    Tuple(Arc<Vec<Value>>),
}

impl Value {
    /// Builds a tuple value from an iterator of fields.
    pub fn tuple<I: IntoIterator<Item = Value>>(fields: I) -> Value {
        Value::Tuple(Arc::new(fields.into_iter().collect()))
    }

    /// Builds a tuple of [`Value::Pid`]s from process ids.
    pub fn pid_set<I: IntoIterator<Item = Pid>>(pids: I) -> Value {
        Value::tuple(pids.into_iter().map(Value::Pid))
    }

    /// Builds a tuple of [`Value::Int`]s.
    pub fn ints<I: IntoIterator<Item = i64>>(xs: I) -> Value {
        Value::tuple(xs.into_iter().map(Value::Int))
    }

    /// `true` iff this is `⊥`.
    pub fn is_unit(&self) -> bool {
        matches!(self, Value::Unit)
    }

    /// The integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(x) => Some(*x),
            _ => None,
        }
    }

    /// The boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The process-id payload, if this is a `Pid`.
    pub fn as_pid(&self) -> Option<Pid> {
        match self {
            Value::Pid(p) => Some(*p),
            _ => None,
        }
    }

    /// The fields, if this is a `Tuple`.
    pub fn as_tuple(&self) -> Option<&[Value]> {
        match self {
            Value::Tuple(t) => Some(&t[..]),
            _ => None,
        }
    }

    /// Field `i` of a tuple, if present.
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.as_tuple().and_then(|t| t.get(i))
    }

    /// The integer payload of field `i` of a tuple.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not a tuple with an `Int` at position `i`; use it
    /// only on records whose shape the writing algorithm guarantees.
    pub fn int_at(&self, i: usize) -> i64 {
        self.get(i)
            .and_then(Value::as_int)
            .unwrap_or_else(|| panic!("expected Int at field {i} of {self:?}"))
    }

    /// The pid payload of field `i` of a tuple.
    ///
    /// # Panics
    ///
    /// Panics if the field is missing or not a `Pid`.
    pub fn pid_at(&self, i: usize) -> Pid {
        self.get(i)
            .and_then(Value::as_pid)
            .unwrap_or_else(|| panic!("expected Pid at field {i} of {self:?}"))
    }

    /// Interprets a tuple-of-pids value as a vector of pids.
    ///
    /// Returns `None` if any element is not a `Pid`, or `self` is not a tuple.
    pub fn to_pid_vec(&self) -> Option<Vec<Pid>> {
        self.as_tuple()?.iter().map(Value::as_pid).collect()
    }
}

impl From<i64> for Value {
    fn from(x: i64) -> Value {
        Value::Int(x)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<Pid> for Value {
    fn from(p: Pid) -> Value {
        Value::Pid(p)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "⊥"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(x) => write!(f, "{x}"),
            Value::Pid(p) => write!(f, "{p}"),
            Value::Tuple(t) => {
                write!(f, "(")?;
                for (i, v) in t.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_is_default_and_bottom() {
        assert!(Value::default().is_unit());
        assert!(Value::Unit.is_unit());
        assert!(!Value::Int(0).is_unit());
    }

    #[test]
    fn accessors_roundtrip() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Pid(Pid(2)).as_pid(), Some(Pid(2)));
        assert_eq!(Value::Int(7).as_bool(), None);
        assert_eq!(Value::Unit.as_int(), None);
    }

    #[test]
    fn tuple_fields() {
        let v = Value::tuple([Value::Int(1), Value::Pid(Pid(4))]);
        assert_eq!(v.int_at(0), 1);
        assert_eq!(v.pid_at(1), Pid(4));
        assert_eq!(v.get(2), None);
    }

    #[test]
    fn pid_vec_roundtrip() {
        let v = Value::pid_set([Pid(0), Pid(3)]);
        assert_eq!(v.to_pid_vec(), Some(vec![Pid(0), Pid(3)]));
        let bad = Value::tuple([Value::Int(1)]);
        assert_eq!(bad.to_pid_vec(), None);
        assert_eq!(Value::Int(1).to_pid_vec(), None);
    }

    #[test]
    fn display_forms() {
        let v = Value::tuple([Value::Unit, Value::Int(-2), Value::Pid(Pid(1))]);
        assert_eq!(v.to_string(), "(⊥,-2,P1)");
    }

    #[test]
    fn ordering_is_total() {
        let mut xs = [Value::Int(3), Value::Unit, Value::Bool(false), Value::Int(1)];
        xs.sort();
        assert_eq!(xs[0], Value::Unit);
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(Pid(9)), Value::Pid(Pid(9)));
    }
}
