//! Format descriptions: the PBIO analogue of XML schemas.

use crate::PbioError;
use sbq_model::TypeDesc;

/// Deepest List/Struct nesting a serialized descriptor may declare. The
/// parser recurses once per level, so a hostile chain of tags must end in
/// an error, not a stack overflow; the repo's deepest workload format
/// nests about 8 levels.
pub const MAX_NESTING: usize = 64;

/// Byte order a format's scalars are laid out in. PBIO senders transmit in
/// their *native* order; the receiver converts if its own order differs
/// ("receiver makes right").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ByteOrder {
    /// Little-endian (x86 hosts in the paper's testbed).
    Little,
    /// Big-endian (the SPARC server in §IV-A).
    Big,
}

impl ByteOrder {
    /// The byte order of the machine this code runs on.
    pub fn native() -> ByteOrder {
        if cfg!(target_endian = "big") {
            ByteOrder::Big
        } else {
            ByteOrder::Little
        }
    }
}

/// On-the-wire type of a field.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum WireType {
    /// Signed integer of 1, 2, 4 or 8 bytes.
    Int {
        /// Width in bytes.
        width: u8,
    },
    /// IEEE float of 4 or 8 bytes.
    Float {
        /// Width in bytes.
        width: u8,
    },
    /// Single byte.
    Char,
    /// `u32` length followed by UTF-8 bytes.
    Str,
    /// `u32` length followed by raw bytes.
    Bytes,
    /// `u32` count followed by that many elements.
    List(Box<WireType>),
    /// An embedded record.
    Struct(Box<FormatDesc>),
}

/// A field: name plus wire type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FieldDesc {
    /// Field name (matched by name during conversion planning).
    pub name: String,
    /// Field wire type.
    pub ty: WireType,
}

/// A named record layout plus the byte order its scalars use.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FormatDesc {
    /// Format name (from the WSDL type name).
    pub name: String,
    /// Scalar byte order for every field in this record (nested records
    /// carry their own, though in practice they match).
    pub byte_order: ByteOrder,
    /// Ordered fields.
    pub fields: Vec<FieldDesc>,
}

/// Knobs for deriving a [`FormatDesc`] from a [`TypeDesc`] — these model
/// the sender's architecture (the dual-SPARC server in §IV-A is big-endian
/// with different natural widths than the x86 clients).
#[derive(Debug, Clone, Copy)]
pub struct FormatOptions {
    /// Byte order of the producing host.
    pub byte_order: ByteOrder,
    /// Width used for `Int` fields (4 on 32-bit SPARC ABIs, 8 on x86-64).
    pub int_width: u8,
    /// Width used for `Float` fields (4 or 8).
    pub float_width: u8,
}

impl Default for FormatOptions {
    fn default() -> Self {
        FormatOptions {
            byte_order: ByteOrder::native(),
            int_width: 8,
            float_width: 8,
        }
    }
}

impl FormatDesc {
    /// Derives the wire format for a schema under the host described by
    /// `opts`. This is what the WSDL compiler does when it "generates PBIO
    /// formats based on the description given in the WSDL file" (§III-B.a,
    /// Fig. 3).
    pub fn from_type(ty: &TypeDesc, opts: FormatOptions) -> Result<FormatDesc, PbioError> {
        match ty {
            TypeDesc::Struct(sd) => {
                let fields = sd
                    .fields
                    .iter()
                    .map(|(n, t)| {
                        Ok(FieldDesc {
                            name: n.clone(),
                            ty: wire_type(t, opts)?,
                        })
                    })
                    .collect::<Result<Vec<_>, PbioError>>()?;
                Ok(FormatDesc {
                    name: sd.name.clone(),
                    byte_order: opts.byte_order,
                    fields,
                })
            }
            // Non-struct top-level parameters are wrapped in a synthetic
            // single-field record, like SOAP wraps them in an element.
            other => {
                let f = FieldDesc {
                    name: "value".to_string(),
                    ty: wire_type(other, opts)?,
                };
                Ok(FormatDesc {
                    name: format!("{}_param", other.name().replace(['<', '>'], "_")),
                    byte_order: opts.byte_order,
                    fields: vec![f],
                })
            }
        }
    }

    /// Number of scalar leaves (used in sizing diagnostics).
    pub fn scalar_count(&self) -> usize {
        self.fields.iter().map(|f| wire_scalar_count(&f.ty)).sum()
    }

    /// Serializes the format description itself — the payload of a
    /// format-registration message. Its size is the first-message
    /// handshake cost the paper observes to be "significant only for very
    /// deeply nested structures" (§IV-B.e).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.write_into(&mut out);
        out
    }

    fn write_into(&self, out: &mut Vec<u8>) {
        write_str(out, &self.name);
        out.push(match self.byte_order {
            ByteOrder::Little => 0,
            ByteOrder::Big => 1,
        });
        out.extend_from_slice(&(self.fields.len() as u16).to_le_bytes());
        for f in &self.fields {
            write_str(out, &f.name);
            write_wire_type(out, &f.ty);
        }
    }

    /// Parses a serialized format description.
    pub fn from_bytes(buf: &[u8]) -> Result<FormatDesc, PbioError> {
        let mut pos = 0;
        let desc = Self::read_from(buf, &mut pos, 0)?;
        if pos != buf.len() {
            return Err(PbioError::TypeMismatch(
                "trailing bytes after format".into(),
            ));
        }
        Ok(desc)
    }

    /// Reads a format nested `depth` List/Struct levels deep.
    fn read_from(buf: &[u8], pos: &mut usize, depth: usize) -> Result<FormatDesc, PbioError> {
        let name = read_str(buf, pos)?;
        let bo = match read_u8(buf, pos)? {
            0 => ByteOrder::Little,
            1 => ByteOrder::Big,
            t => return Err(PbioError::BadTag(t)),
        };
        let nfields = read_u16(buf, pos)? as usize;
        let mut fields = Vec::with_capacity(nfields);
        for _ in 0..nfields {
            let fname = read_str(buf, pos)?;
            let ty = read_wire_type(buf, pos, depth)?;
            fields.push(FieldDesc { name: fname, ty });
        }
        Ok(FormatDesc {
            name,
            byte_order: bo,
            fields,
        })
    }
}

fn wire_type(ty: &TypeDesc, opts: FormatOptions) -> Result<WireType, PbioError> {
    Ok(match ty {
        TypeDesc::Int => WireType::Int {
            width: check_int_width(opts.int_width)?,
        },
        TypeDesc::Float => WireType::Float {
            width: check_float_width(opts.float_width)?,
        },
        TypeDesc::Char => WireType::Char,
        TypeDesc::Str => WireType::Str,
        TypeDesc::Bytes => WireType::Bytes,
        TypeDesc::List(e) => WireType::List(Box::new(wire_type(e, opts)?)),
        TypeDesc::Struct(_) => WireType::Struct(Box::new(FormatDesc::from_type(ty, opts)?)),
    })
}

fn check_int_width(w: u8) -> Result<u8, PbioError> {
    match w {
        1 | 2 | 4 | 8 => Ok(w),
        other => Err(PbioError::BadWidth(other)),
    }
}

fn check_float_width(w: u8) -> Result<u8, PbioError> {
    match w {
        4 | 8 => Ok(w),
        other => Err(PbioError::BadWidth(other)),
    }
}

fn wire_scalar_count(ty: &WireType) -> usize {
    match ty {
        WireType::Struct(d) => d.scalar_count(),
        _ => 1,
    }
}

fn write_wire_type(out: &mut Vec<u8>, ty: &WireType) {
    match ty {
        WireType::Int { width } => {
            out.push(0);
            out.push(*width);
        }
        WireType::Float { width } => {
            out.push(1);
            out.push(*width);
        }
        WireType::Char => out.push(2),
        WireType::Str => out.push(3),
        WireType::Bytes => out.push(6),
        WireType::List(e) => {
            out.push(4);
            write_wire_type(out, e);
        }
        WireType::Struct(d) => {
            out.push(5);
            d.write_into(out);
        }
    }
}

fn read_wire_type(buf: &[u8], pos: &mut usize, depth: usize) -> Result<WireType, PbioError> {
    let tag = read_u8(buf, pos)?;
    if matches!(tag, 4 | 5) && depth >= MAX_NESTING {
        return Err(PbioError::TooDeep(MAX_NESTING));
    }
    Ok(match tag {
        0 => WireType::Int {
            width: check_int_width(read_u8(buf, pos)?)?,
        },
        1 => WireType::Float {
            width: check_float_width(read_u8(buf, pos)?)?,
        },
        2 => WireType::Char,
        3 => WireType::Str,
        6 => WireType::Bytes,
        4 => WireType::List(Box::new(read_wire_type(buf, pos, depth + 1)?)),
        5 => WireType::Struct(Box::new(FormatDesc::read_from(buf, pos, depth + 1)?)),
        t => return Err(PbioError::BadTag(t)),
    })
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn read_u8(buf: &[u8], pos: &mut usize) -> Result<u8, PbioError> {
    let b = *buf.get(*pos).ok_or(PbioError::Truncated)?;
    *pos += 1;
    Ok(b)
}

fn read_u16(buf: &[u8], pos: &mut usize) -> Result<u16, PbioError> {
    if *pos + 2 > buf.len() {
        return Err(PbioError::Truncated);
    }
    let v = u16::from_le_bytes([buf[*pos], buf[*pos + 1]]);
    *pos += 2;
    Ok(v)
}

fn read_str(buf: &[u8], pos: &mut usize) -> Result<String, PbioError> {
    let len = read_u16(buf, pos)? as usize;
    if *pos + len > buf.len() {
        return Err(PbioError::Truncated);
    }
    let s = std::str::from_utf8(&buf[*pos..*pos + len]).map_err(|_| PbioError::BadUtf8)?;
    *pos += len;
    Ok(s.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbq_model::workload;

    /// A one-field descriptor whose field type is `lists` nested List
    /// tags around a Char.
    fn list_chain(lists: usize) -> Vec<u8> {
        let mut buf = vec![0, 0, 0, 1, 0, 0, 0];
        buf.resize(buf.len() + lists, 4);
        buf.push(2);
        buf
    }

    #[test]
    fn nesting_is_bounded() {
        assert!(FormatDesc::from_bytes(&list_chain(MAX_NESTING)).is_ok());
        assert_eq!(
            FormatDesc::from_bytes(&list_chain(MAX_NESTING + 1)),
            Err(PbioError::TooDeep(MAX_NESTING))
        );
        // A ~1 MB chain of List tags once overflowed the stack.
        assert_eq!(
            FormatDesc::from_bytes(&list_chain(1 << 20)),
            Err(PbioError::TooDeep(MAX_NESTING))
        );
    }

    #[test]
    fn from_type_maps_soup_schema() {
        let ty = TypeDesc::struct_of(
            "m",
            vec![
                ("i", TypeDesc::Int),
                ("f", TypeDesc::Float),
                ("c", TypeDesc::Char),
                ("s", TypeDesc::Str),
                ("l", TypeDesc::list_of(TypeDesc::Float)),
            ],
        );
        let d = FormatDesc::from_type(&ty, FormatOptions::default()).unwrap();
        assert_eq!(d.name, "m");
        assert_eq!(d.fields.len(), 5);
        assert_eq!(d.fields[0].ty, WireType::Int { width: 8 });
        assert_eq!(
            d.fields[4].ty,
            WireType::List(Box::new(WireType::Float { width: 8 }))
        );
    }

    #[test]
    fn non_struct_parameters_get_wrapped() {
        let d = FormatDesc::from_type(&TypeDesc::list_of(TypeDesc::Int), FormatOptions::default())
            .unwrap();
        assert_eq!(d.fields.len(), 1);
        assert_eq!(d.fields[0].name, "value");
    }

    #[test]
    fn sparc_like_options_respected() {
        let opts = FormatOptions {
            byte_order: ByteOrder::Big,
            int_width: 4,
            float_width: 8,
        };
        let d = FormatDesc::from_type(&TypeDesc::struct_of("x", vec![("a", TypeDesc::Int)]), opts)
            .unwrap();
        assert_eq!(d.byte_order, ByteOrder::Big);
        assert_eq!(d.fields[0].ty, WireType::Int { width: 4 });
    }

    #[test]
    fn bad_widths_rejected() {
        let opts = FormatOptions {
            int_width: 3,
            ..Default::default()
        };
        let err =
            FormatDesc::from_type(&TypeDesc::struct_of("x", vec![("a", TypeDesc::Int)]), opts);
        assert_eq!(err.unwrap_err(), PbioError::BadWidth(3));
    }

    #[test]
    fn serialization_round_trips() {
        for depth in 0..5 {
            let ty = workload::nested_struct_type(depth);
            let d = FormatDesc::from_type(&ty, FormatOptions::default()).unwrap();
            let bytes = d.to_bytes();
            assert_eq!(FormatDesc::from_bytes(&bytes).unwrap(), d);
        }
    }

    #[test]
    fn registration_size_grows_with_nesting() {
        let shallow =
            FormatDesc::from_type(&workload::nested_struct_type(1), FormatOptions::default())
                .unwrap()
                .to_bytes()
                .len();
        let deep =
            FormatDesc::from_type(&workload::nested_struct_type(8), FormatOptions::default())
                .unwrap()
                .to_bytes()
                .len();
        assert!(deep > 4 * shallow, "deep={deep} shallow={shallow}");
    }

    #[test]
    fn truncated_or_garbage_rejected() {
        let d = FormatDesc::from_type(&workload::nested_struct_type(2), FormatOptions::default())
            .unwrap();
        let bytes = d.to_bytes();
        assert_eq!(
            FormatDesc::from_bytes(&bytes[..bytes.len() - 1]).unwrap_err(),
            PbioError::Truncated
        );
        let mut garbage = bytes.clone();
        garbage.push(0xff);
        assert!(FormatDesc::from_bytes(&garbage).is_err());
    }

    #[test]
    fn native_byte_order_detects_host() {
        // On any platform this test runs, the two must agree.
        assert_eq!(
            ByteOrder::native() == ByteOrder::Little,
            cfg!(target_endian = "little")
        );
    }
}
