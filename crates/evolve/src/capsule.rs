//! Versioned state capsules.
//!
//! A [`Capsule`] is an ordered list of named, typed fields plus a kind
//! string and a schema version. Swaps hand capsules over in memory; two
//! captures of the same state compare equal, field order included.

/// A typed capsule field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A 32-bit unsigned integer.
    U32(u32),
    /// A 64-bit unsigned integer.
    U64(u64),
    /// A 64-bit float.
    F64(f64),
    /// A UTF-8 string.
    Str(String),
    /// A jagged float table (e.g. per-bucket histories).
    F64Table(Vec<Vec<f64>>),
    /// Named floats in a deterministic order (e.g. per-policy scores).
    NamedF64s(Vec<(String, f64)>),
}

/// Why a capsule could not be resumed.
#[derive(Debug, Clone, PartialEq)]
pub enum CapsuleError {
    /// The capsule's kind does not match the resuming component.
    KindMismatch {
        /// Kind the component expected.
        expected: String,
        /// Kind the capsule carries.
        got: String,
    },
    /// A required field is absent.
    MissingField(String),
    /// A field exists but holds a different type.
    WrongType {
        /// Field name.
        field: String,
        /// Type the reader expected.
        expected: &'static str,
    },
    /// A field value is present but semantically unusable (e.g. an
    /// unknown policy name).
    BadValue(String),
}

impl std::fmt::Display for CapsuleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CapsuleError::KindMismatch { expected, got } => {
                write!(f, "capsule kind mismatch: expected {expected}, got {got}")
            }
            CapsuleError::MissingField(name) => write!(f, "capsule field missing: {name}"),
            CapsuleError::WrongType { field, expected } => {
                write!(f, "capsule field {field} is not a {expected}")
            }
            CapsuleError::BadValue(why) => write!(f, "capsule value rejected: {why}"),
        }
    }
}

impl std::error::Error for CapsuleError {}

/// A versioned snapshot of one component's state.
///
/// Fields keep insertion order — the order is part of capsule equality,
/// so capture implementations must always push fields in the same
/// sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct Capsule {
    /// Component-implementation identifier (e.g. `"autoscaler.hist"`).
    pub kind: String,
    /// Schema version of the field layout.
    pub version: u32,
    fields: Vec<(String, Value)>,
}

impl Capsule {
    /// Creates an empty capsule of the given kind and schema version.
    pub fn new(kind: &str, version: u32) -> Self {
        Capsule {
            kind: kind.to_string(),
            version,
            fields: Vec::new(),
        }
    }

    /// Appends a field (builder style).
    pub fn with(mut self, name: &str, value: Value) -> Self {
        self.push(name, value);
        self
    }

    /// Appends a u32 field (builder style).
    pub fn with_u32(self, name: &str, v: u32) -> Self {
        self.with(name, Value::U32(v))
    }

    /// Appends a u64 field (builder style).
    pub fn with_u64(self, name: &str, v: u64) -> Self {
        self.with(name, Value::U64(v))
    }

    /// Appends an f64 field (builder style).
    pub fn with_f64(self, name: &str, v: f64) -> Self {
        self.with(name, Value::F64(v))
    }

    /// Appends a string field (builder style).
    pub fn with_str(self, name: &str, v: &str) -> Self {
        self.with(name, Value::Str(v.to_string()))
    }

    /// Appends a field.
    pub fn push(&mut self, name: &str, value: Value) {
        debug_assert!(self.get(name).is_none(), "duplicate capsule field {name:?}");
        self.fields.push((name.to_string(), value));
    }

    /// Looks a field up by name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Replaces a field's value in place, keeping its position. Appends
    /// if the field does not exist.
    pub fn set(&mut self, name: &str, value: Value) {
        match self.fields.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v = value,
            None => self.fields.push((name.to_string(), value)),
        }
    }

    /// All fields in encoding order.
    pub fn fields(&self) -> &[(String, Value)] {
        &self.fields
    }

    /// Errors unless the capsule kind matches `expected`.
    pub fn expect_kind(&self, expected: &str) -> Result<(), CapsuleError> {
        if self.kind == expected {
            Ok(())
        } else {
            Err(CapsuleError::KindMismatch {
                expected: expected.to_string(),
                got: self.kind.clone(),
            })
        }
    }

    fn field(&self, name: &str) -> Result<&Value, CapsuleError> {
        self.get(name)
            .ok_or_else(|| CapsuleError::MissingField(name.to_string()))
    }

    fn wrong(&self, name: &str, expected: &'static str) -> CapsuleError {
        CapsuleError::WrongType {
            field: name.to_string(),
            expected,
        }
    }

    /// Reads a u32 field.
    pub fn u32_field(&self, name: &str) -> Result<u32, CapsuleError> {
        match self.field(name)? {
            Value::U32(v) => Ok(*v),
            _ => Err(self.wrong(name, "u32")),
        }
    }

    /// Reads a u64 field.
    pub fn u64_field(&self, name: &str) -> Result<u64, CapsuleError> {
        match self.field(name)? {
            Value::U64(v) => Ok(*v),
            _ => Err(self.wrong(name, "u64")),
        }
    }

    /// Reads an f64 field.
    pub fn f64_field(&self, name: &str) -> Result<f64, CapsuleError> {
        match self.field(name)? {
            Value::F64(v) => Ok(*v),
            _ => Err(self.wrong(name, "f64")),
        }
    }

    /// Reads a string field.
    pub fn str_field(&self, name: &str) -> Result<&str, CapsuleError> {
        match self.field(name)? {
            Value::Str(v) => Ok(v),
            _ => Err(self.wrong(name, "str")),
        }
    }

    /// Reads a float-table field.
    pub fn f64_table_field(&self, name: &str) -> Result<&[Vec<f64>], CapsuleError> {
        match self.field(name)? {
            Value::F64Table(v) => Ok(v),
            _ => Err(self.wrong(name, "f64-table")),
        }
    }

    /// Reads a named-floats field.
    pub fn named_f64s_field(&self, name: &str) -> Result<&[(String, f64)], CapsuleError> {
        match self.field(name)? {
            Value::NamedF64s(v) => Ok(v),
            _ => Err(self.wrong(name, "named-f64s")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_getters_enforce_types() {
        let c = Capsule::new("t", 1).with_u32("x", 5);
        assert_eq!(c.u32_field("x"), Ok(5));
        assert_eq!(
            c.f64_field("x"),
            Err(CapsuleError::WrongType {
                field: "x".into(),
                expected: "f64"
            })
        );
        assert_eq!(
            c.u32_field("missing"),
            Err(CapsuleError::MissingField("missing".into()))
        );
    }

    #[test]
    fn expect_kind_gates_resume() {
        let c = Capsule::new("autoscaler.react", 1);
        assert!(c.expect_kind("autoscaler.react").is_ok());
        let err = c.expect_kind("autoscaler.token").unwrap_err();
        assert!(matches!(err, CapsuleError::KindMismatch { .. }));
    }

    #[test]
    fn set_rewrites_in_place_preserving_order() {
        let mut c = Capsule::new("t", 1).with_f64("a", 1.0).with_f64("b", 2.0);
        c.set("a", Value::F64(10.0));
        assert_eq!(c.f64_field("a"), Ok(10.0));
        assert_eq!(c.fields()[0].0, "a");
        c.set("new", Value::U32(1));
        assert_eq!(c.fields().len(), 3);
    }
}
