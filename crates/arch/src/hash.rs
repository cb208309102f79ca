//! The workspace's one content hash: 64-bit FNV-1a, fed as a stream.

use std::io;

use serde::Serialize;

/// A streaming 64-bit FNV-1a hasher.
///
/// FNV-1a is deterministic across runs, platforms and compiler versions
/// (unlike `DefaultHasher`, which documents no such stability), so its
/// values may be persisted: evaluation cache files and sweep journals key
/// design points by them. The hasher implements [`io::Write`], so a value's
/// JSON streams into it ([`Fnv1a::write_json`]) without the text ever
/// being built; the hash equals that of the text.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher that has seen no bytes.
    pub const fn new() -> Self {
        Fnv1a(Self::OFFSET_BASIS)
    }

    /// Feeds `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(Self::PRIME);
        }
    }

    /// Feeds `value`'s pretty-printed JSON into the hash: the bytes
    /// `serde_json::to_string_pretty` returns, streamed.
    pub fn write_json<T: Serialize + ?Sized>(&mut self, value: &T) {
        serde_json::to_writer_pretty(self, value).expect("writing into a hasher cannot fail");
    }

    /// The hash of every byte fed so far.
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl io::Write for Fnv1a {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.update(bytes);
        Ok(bytes.len())
    }

    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.update(bytes);
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash(bytes: &[u8]) -> u64 {
        let mut hash = Fnv1a::new();
        hash.update(bytes);
        hash.finish()
    }

    #[test]
    fn matches_the_published_fnv1a_64_vectors() {
        assert_eq!(hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streamed_json_hashes_like_its_text() {
        let value = vec![(String::from("key \"x\""), 12_345u64), (String::from("é"), 0)];
        let mut streamed = Fnv1a::new();
        streamed.update(b"prefix\0");
        streamed.write_json(&value);
        let text = serde_json::to_string_pretty(&value).unwrap();
        assert_eq!(streamed.finish(), hash(format!("prefix\0{text}").as_bytes()));
    }
}
