//! The mutation record: what a statement changed.
//!
//! Every mutation the executor applies pushes one `Change` onto a
//! [`ChangeLog`]: what the statement did plus the data it displaced
//! (old row images, dropped tables), captured by move on the mutation
//! path — logging an UPDATE is a `mem::replace`, not a clone. Only
//! changes that happened are logged, including the rows a statement
//! that then failed did apply.
//!
//! The one record drives both logs:
//!
//! * **forward**, the `Database` encodes each statement's records into
//!   WAL frames (`WalAppender::change`), borrowing the post-images from
//!   the catalog the statement left;
//! * **backward**, the records move onto the owning transaction's log;
//!   `COMMIT` discards it and `ROLLBACK` replays it in reverse.
//!
//! Transaction cost is therefore proportional to the rows the
//! transaction *touched*, never to the database's size — a
//! `BEGIN`/`COMMIT` around one insert into a million-row catalog logs
//! exactly one record.

use crate::catalog::Catalog;
use crate::table::{IndexDef, Row, Table};

/// One applied effect of a mutation statement.
#[derive(Debug)]
pub(crate) enum Change {
    /// `n` rows were appended to `table` (INSERT).
    Append {
        /// Target table.
        table: String,
        /// How many rows were appended.
        n: usize,
    },
    /// Rows were removed from `table` (DELETE); ascending original
    /// positions paired with the removed row images.
    Delete {
        /// Target table.
        table: String,
        /// `(original position, row)` in ascending position order.
        removed: Vec<(usize, Row)>,
    },
    /// Rows of `table` were overwritten (UPDATE); the pre-update images.
    Update {
        /// Target table.
        table: String,
        /// `(position, pre-update row)` pairs.
        old: Vec<(usize, Row)>,
    },
    /// `CREATE TABLE` created `name`.
    CreateTable {
        /// Created table name.
        name: String,
    },
    /// `DROP TABLE` removed `name`; the whole table rides along (the
    /// statement itself touched every row, so its undo may too).
    DropTable {
        /// Dropped table name.
        name: String,
        /// The dropped table, rows and indexes intact.
        table: Box<Table>,
    },
    /// `CREATE INDEX` added `index` to `table`.
    CreateIndex {
        /// Owning table.
        table: String,
        /// Created index name.
        index: String,
    },
    /// `DROP INDEX` removed an index from `table`.
    DropIndex {
        /// Owning table.
        table: String,
        /// The dropped definition (the map rebuilds on undo).
        def: IndexDef,
    },
}

/// An ordered log of applied changes: one statement's, or one open
/// transaction's.
#[derive(Debug, Default)]
pub struct ChangeLog {
    records: Vec<Change>,
}

impl ChangeLog {
    /// Append one record (called by the executor under the catalog
    /// write lock).
    pub(crate) fn push(&mut self, rec: Change) {
        self.records.push(rec);
    }

    /// Move every record of `other` onto the end of this log.
    pub(crate) fn append(&mut self, mut other: ChangeLog) {
        self.records.append(&mut other.records);
    }

    /// The records, oldest first.
    pub(crate) fn records(&self) -> &[Change] {
        &self.records
    }

    /// Whether nothing was logged.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Replay the log in reverse against `catalog`, restoring the
    /// pre-transaction state exactly. Returns the number of row images
    /// applied (the `tx_rows_undone` stat) — proportional to the rows
    /// the transaction touched, not to the catalog.
    ///
    /// Replay is infallible by construction: records are undone newest-
    /// first, so every table/index a record names was restored by the
    /// records after it (e.g. a `DROP TABLE` is re-instated before the
    /// undo of earlier inserts into it runs).
    pub(crate) fn rollback(self, catalog: &mut Catalog) -> u64 {
        let mut rows_undone = 0u64;
        for rec in self.records.into_iter().rev() {
            match rec {
                Change::Append { table, n } => {
                    rows_undone += n as u64;
                    catalog
                        .get_mut(&table)
                        // analyze:allow(unwrap: reverse replay re-instates any table dropped after this record was logged)
                        .expect("undo: appended-into table exists")
                        .undo_append(n);
                }
                Change::Delete { table, removed } => {
                    rows_undone += removed.len() as u64;
                    catalog
                        .get_mut(&table)
                        // analyze:allow(unwrap: reverse replay re-instates any table dropped after this record was logged)
                        .expect("undo: deleted-from table exists")
                        .insert_at(removed);
                }
                Change::Update { table, old } => {
                    rows_undone += old.len() as u64;
                    catalog
                        .get_mut(&table)
                        // analyze:allow(unwrap: reverse replay re-instates any table dropped after this record was logged)
                        .expect("undo: updated table exists")
                        .apply_updates(old);
                }
                Change::CreateTable { name } => {
                    catalog
                        .drop_table(&name)
                        // analyze:allow(unwrap: the logged CREATE TABLE succeeded and reverse replay undid later drops)
                        .expect("undo: created table exists");
                }
                Change::DropTable { name, table } => {
                    catalog.put_table(&name, *table);
                }
                Change::CreateIndex { table, index } => {
                    catalog
                        .get_mut(&table)
                        // analyze:allow(unwrap: reverse replay re-instates any table dropped after this record was logged)
                        .expect("undo: indexed table exists")
                        .drop_index(&index)
                        // analyze:allow(unwrap: the logged CREATE INDEX succeeded and reverse replay undid later drops)
                        .expect("undo: created index exists");
                }
                Change::DropIndex { table, def } => {
                    let cols: Vec<&str> = def.columns.iter().map(String::as_str).collect();
                    catalog
                        .get_mut(&table)
                        // analyze:allow(unwrap: reverse replay re-instates any table dropped after this record was logged)
                        .expect("undo: index's table exists")
                        .create_index(&def.name, &cols)
                        // analyze:allow(unwrap: the dropped index's def was captured verbatim, so re-creating it cannot conflict)
                        .expect("undo: dropped index re-creates");
                }
            }
        }
        rows_undone
    }
}
