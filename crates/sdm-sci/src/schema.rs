//! The container layer's metadata tables as typed [`Relation`]s.
//!
//! Four `sci_*` tables sit beside SDM's six Figure-4 tables. Like them,
//! each is described once by a static descriptor — DDL and the
//! secondary indexes are generated from it via [`sdm_core::ensure_table`],
//! and every query in [`crate::container`] is a typed statement. Every
//! container lookup filters by run, so each table carries one
//! composite index led by `runid`: run-only queries walk the prefix,
//! and the narrower (runid, key) probes resolve to a single bucket.
//! The second key column matches each table's point-lookup shape — and
//! for `sci_dataset_table` it also streams the reopen listing
//! (`ORDER BY ghandle`) straight off the index, sort-free. No SQL text
//! exists anywhere in this crate.

use sdm_metadb::relation;
use sdm_metadb::stmt::{Relation, TableDesc};

relation! {
    /// One `sci_group_table` row: a group path in a container's
    /// hierarchy.
    pub struct SciGroupRow in "sci_group_table" as SciGroupCol {
        /// Owning container run.
        pub runid: i64 => Runid,
        /// Absolute group path (`/flow`).
        pub path: String => Path,
    }
    indexes { "sci_group_runid_path" on (runid, path) }
}

relation! {
    /// One `sci_dim_table` row: a named dimension.
    pub struct SciDimRow in "sci_dim_table" as SciDimCol {
        /// Owning container run.
        pub runid: i64 => Runid,
        /// Dimension name.
        pub name: String => Name,
        /// Dimension length.
        pub len: i64 => Len,
    }
    indexes { "sci_dim_runid_name" on (runid, name) }
}

relation! {
    /// One `sci_dataset_table` row: a dataset defined over dimensions.
    pub struct SciDatasetRow in "sci_dataset_table" as SciDatasetCol {
        /// Owning container run.
        pub runid: i64 => Runid,
        /// SDM group handle the dataset was registered under (reopen
        /// order).
        pub ghandle: i64 => Ghandle,
        /// Absolute dataset path.
        pub path: String => Path,
        /// Element type name.
        pub data_type: String => DataType,
        /// Comma-joined dimension names, outermost first.
        pub dims: String => Dims,
        /// Total element count.
        pub global_size: i64 => GlobalSize,
    }
    indexes { "sci_dataset_runid_ghandle" on (runid, ghandle) }
}

relation! {
    /// One `sci_attr_table` row: a typed attribute on a group or
    /// dataset, stored across three nullable value columns.
    pub struct SciAttrRow in "sci_attr_table" as SciAttrCol {
        /// Owning container run.
        pub runid: i64 => Runid,
        /// Path of the annotated object.
        pub path: String => Path,
        /// Attribute name.
        pub name: String => Name,
        /// Value type tag (`INT` / `DOUBLE` / `TEXT`).
        pub vtype: String => Vtype,
        /// Integer payload (NULL unless `vtype = INT`).
        pub ival: i64 => Ival,
        /// Double payload (NULL unless `vtype = DOUBLE`).
        pub dval: f64 => Dval,
        /// Text payload (NULL unless `vtype = TEXT`).
        pub tval: String => Tval,
    }
    indexes { "sci_attr_runid_path" on (runid, path) }
}

/// The container layer's tables, in creation order.
pub const SCI_TABLES: [&TableDesc; 4] = [
    &SciGroupRow::TABLE,
    &SciDimRow::TABLE,
    &SciDatasetRow::TABLE,
    &SciAttrRow::TABLE,
];
