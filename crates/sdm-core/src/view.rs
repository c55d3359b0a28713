//! Map-array data views.
//!
//! `SDM_data_view` hands SDM a *map array*: for each local element, its
//! global index in the file. The file view must be monotone, so the map
//! is sorted; the resulting permutation is remembered and applied to the
//! user's buffer on writes (and inverted on reads), keeping the user's
//! local element order intact while the file sees globally ordered data.

use sdm_mpi::datatype::Flattened;

use crate::error::{SdmError, SdmResult};
use crate::types::SdmType;

/// A compiled data view for one dataset.
#[derive(Debug, Clone)]
pub struct DataView {
    /// Sorted global indices (element units).
    pub sorted_map: Vec<u64>,
    /// `perm[k]` = position in the *user's local order* of the element
    /// that goes to `sorted_map[k]`'s file slot.
    pub perm: Vec<u32>,
    /// Flattened filetype built from `sorted_map` (element units scaled
    /// by the element size), relative to the dataset's base offset.
    pub ftype: Flattened,
    /// Element size in bytes.
    pub elem_size: u64,
}

impl DataView {
    /// Compile a map array. `global_len` is the dataset's global element
    /// count (for bounds checks); duplicate indices are rejected.
    pub fn compile(map: &[u64], global_len: u64, ty: SdmType) -> SdmResult<Self> {
        // Maps that are already strictly ascending (edge ids, owned and
        // ghost node lists) skip the argsort: the permutation is the
        // identity and there can be no duplicate.
        let (sorted_map, perm) = if map.windows(2).all(|w| w[0] < w[1]) {
            (map.to_vec(), (0..map.len() as u32).collect())
        } else {
            let mut idx: Vec<u32> = (0..map.len() as u32).collect();
            idx.sort_unstable_by_key(|&k| map[k as usize]);
            let sorted_map: Vec<u64> = idx.iter().map(|&k| map[k as usize]).collect();
            for w in sorted_map.windows(2) {
                if w[0] == w[1] {
                    return Err(SdmError::Usage(format!(
                        "duplicate global index {} in map array",
                        w[0]
                    )));
                }
            }
            (sorted_map, idx)
        };
        if let Some(&last) = sorted_map.last() {
            if last >= global_len {
                return Err(SdmError::Usage(format!(
                    "map index {last} out of range for global size {global_len}"
                )));
            }
        }
        // The filetype `resized(global_len, indexed_block(1, sorted_map))`
        // flattened in one pass: runs of consecutive indices coalesce
        // into one byte segment each.
        let esize = ty.size();
        let mut segments: Vec<(u64, u64)> = Vec::new();
        for &g in &sorted_map {
            match segments.last_mut() {
                Some((off, len)) if *off + *len == g * esize => *len += esize,
                _ => segments.push((g * esize, esize)),
            }
        }
        let ftype = Flattened {
            segments,
            extent: global_len * esize,
            size: sorted_map.len() as u64 * esize,
        };
        Ok(Self {
            sorted_map,
            perm,
            ftype,
            elem_size: esize,
        })
    }

    /// Local element count.
    pub fn len(&self) -> usize {
        self.sorted_map.len()
    }

    /// Whether the view selects nothing.
    pub fn is_empty(&self) -> bool {
        self.sorted_map.is_empty()
    }

    /// Reorder a user buffer (local order) into file order.
    pub fn to_file_order<T: Copy>(&self, user: &[T]) -> SdmResult<Vec<T>> {
        if user.len() != self.perm.len() {
            return Err(SdmError::Usage(format!(
                "buffer has {} elements but view selects {}",
                user.len(),
                self.perm.len()
            )));
        }
        Ok(self.perm.iter().map(|&k| user[k as usize]).collect())
    }

    /// [`DataView::to_file_order`], permuting straight into a byte
    /// buffer: one allocation and one pass, for callers (the timestep
    /// scope) that stage the result as raw bytes anyway.
    pub fn to_file_order_bytes<T: sdm_mpi::pod::Pod>(&self, user: &[T]) -> SdmResult<Vec<u8>> {
        if user.len() != self.perm.len() {
            return Err(SdmError::Usage(format!(
                "buffer has {} elements but view selects {}",
                user.len(),
                self.perm.len()
            )));
        }
        let esize = std::mem::size_of::<T>();
        let src = sdm_mpi::pod::as_bytes(user);
        let mut out = vec![0u8; std::mem::size_of_val(user)];
        for (k, &p) in self.perm.iter().enumerate() {
            let s = p as usize * esize;
            out[k * esize..(k + 1) * esize].copy_from_slice(&src[s..s + esize]);
        }
        Ok(out)
    }

    /// Scatter file-ordered data into the caller's buffer, in the
    /// user's local order.
    pub fn scatter_to_user<T: Copy>(&self, file_ordered: &[T], out: &mut [T]) -> SdmResult<()> {
        for (what, len) in [("file", file_ordered.len()), ("output", out.len())] {
            if len != self.perm.len() {
                return Err(SdmError::Usage(format!(
                    "{what} buffer has {len} elements but view selects {}",
                    self.perm.len()
                )));
            }
        }
        for (&v, &p) in file_ordered.iter().zip(&self.perm) {
            out[p as usize] = v;
        }
        Ok(())
    }

    /// [`DataView::scatter_to_user`] into a fresh buffer.
    pub fn to_user_order<T: Copy + Default>(&self, file_ordered: &[T]) -> SdmResult<Vec<T>> {
        let mut out = vec![T::default(); self.perm.len()];
        self.scatter_to_user(file_ordered, &mut out)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_map_and_permutation() {
        // User holds globals [5, 1, 3] in that local order.
        let v = DataView::compile(&[5, 1, 3], 10, SdmType::Double).unwrap();
        assert_eq!(v.sorted_map, vec![1, 3, 5]);
        assert_eq!(v.perm, vec![1, 2, 0]);
        let file_order = v.to_file_order(&[50.0, 10.0, 30.0]).unwrap();
        assert_eq!(file_order, vec![10.0, 30.0, 50.0]);
        let back = v.to_user_order(&file_order).unwrap();
        assert_eq!(back, vec![50.0, 10.0, 30.0]);
    }

    #[test]
    fn ftype_segments_scaled_by_elem_size() {
        let v = DataView::compile(&[0, 1, 4], 6, SdmType::Double).unwrap();
        // 0,1 coalesce; 4 separate.
        assert_eq!(v.ftype.segments, vec![(0, 16), (32, 8)]);
        assert_eq!(v.ftype.extent, 48);
        let vi = DataView::compile(&[0, 1, 4], 6, SdmType::Int32).unwrap();
        assert_eq!(vi.ftype.segments, vec![(0, 8), (16, 4)]);
    }

    #[test]
    fn duplicates_rejected() {
        assert!(matches!(
            DataView::compile(&[1, 1], 4, SdmType::Double),
            Err(SdmError::Usage(_))
        ));
    }

    #[test]
    fn out_of_range_rejected() {
        assert!(DataView::compile(&[9], 9, SdmType::Double).is_err());
        assert!(DataView::compile(&[8], 9, SdmType::Double).is_ok());
    }

    #[test]
    fn wrong_buffer_length_rejected() {
        let v = DataView::compile(&[0, 2], 4, SdmType::Double).unwrap();
        assert!(v.to_file_order(&[1.0]).is_err());
        assert!(v.to_user_order(&[1.0, 2.0, 3.0]).is_err());
        assert!(v.scatter_to_user(&[1.0, 2.0], &mut [0.0; 3]).is_err());
        assert!(v.to_file_order_bytes(&[1.0]).is_err());
    }

    #[test]
    fn byte_permutation_matches_typed_permutation() {
        let v = DataView::compile(&[5, 1, 3], 10, SdmType::Double).unwrap();
        let user = [50.0f64, 10.0, 30.0];
        let typed = v.to_file_order(&user).unwrap();
        let bytes = v.to_file_order_bytes(&user).unwrap();
        assert_eq!(bytes, sdm_mpi::pod::as_bytes(&typed));
        let vi = DataView::compile(&[2, 0], 4, SdmType::Int32).unwrap();
        let ints = [7i32, -9];
        assert_eq!(
            vi.to_file_order_bytes(&ints).unwrap(),
            sdm_mpi::pod::as_bytes(&vi.to_file_order(&ints).unwrap())
        );
    }

    #[test]
    fn empty_view() {
        let v = DataView::compile(&[], 4, SdmType::Double).unwrap();
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
        assert!(v.to_file_order::<f64>(&[]).unwrap().is_empty());
    }
}
