//! XML data model and parser substrate for the FIX index.
//!
//! This crate provides everything FIX needs from an XML store:
//!
//! * [`LabelTable`] — a string interner mapping element names (and hashed
//!   value labels, see the `fix-core` value extension) to dense [`LabelId`]s.
//! * [`Document`] — an arena-allocated ordered tree of element and text
//!   nodes, built either programmatically ([`DocumentBuilder`]) or by the
//!   pull [`parser`].
//! * [`Event`] / [`EventSource`] — the SAX-style event-stream abstraction
//!   consumed by the single-pass bisimulation-graph construction of the
//!   paper's Algorithm 1 (`CONSTRUCT-ENTRIES`).
//!
//! The parser is written from scratch because the XML substrate is part of
//! the reproduction; it supports the subset of XML the paper's data sets
//! exercise (elements, attributes, character data, CDATA, comments,
//! processing instructions, standard and numeric character references).
//!
//! The arena is already region-encoded (node id = preorder rank, subtree
//! end = region end). The per-label region streams that the
//! structural-join baselines consume are built in `fix-bench`'s
//! `baselines` module, outside the engine.

pub mod document;
pub mod events;
pub mod label;
pub mod parser;
pub mod serialize;
pub mod stats;
pub mod streaming;

pub use document::{Document, DocumentBuilder, Node, NodeId, NodeKind};
pub use events::{drain as drain_events, Event, EventSource, StoragePtr, TreeEventSource};
pub use label::{LabelId, LabelTable};
pub use parser::{
    parse_document, parse_document_limited, ParseError, Parser, RawEvent, DEFAULT_MAX_DEPTH,
};
pub use serialize::to_xml_string;
pub use stats::DocStats;
pub use streaming::{
    parse_document_from_reader, parse_document_from_reader_limited, StreamingParser,
};
