//! The wire format, byte for byte.
//!
//! Every expected string below was captured by running this file against
//! the tree-building printer this workspace had before `Serialize`
//! streamed (commit 8b0cfdf): HTTP bodies, `manifest.json`, shard `meta`,
//! jsonl lines, `quarantine.json` and `crawl_state.json` written by an
//! older build must stay byte-identical, and nothing else can say so — the
//! benchmark's server and its expected bodies share `to_string`.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use gittables_core::apps::SearchHit;
use gittables_table::{CellArena, Schema};
use serde::Serialize;

#[track_caller]
fn check<T: Serialize + ?Sized>(value: &T, expected: &str) {
    let text = serde_json::to_string(value).unwrap();
    assert_eq!(text, expected);
    assert_eq!(serde_json::to_vec(value).unwrap(), expected.as_bytes());
    let mut written = Vec::new();
    serde_json::to_writer(&mut written, value).unwrap();
    assert_eq!(written, expected.as_bytes());
}

#[derive(Serialize)]
struct Leaf {
    id: i64,
    #[serde(skip)]
    #[allow(dead_code)]
    scratch: Vec<u8>,
    name: Option<String>,
    absent: Option<u32>,
}

#[derive(Serialize)]
struct OnlySkipped {
    #[serde(skip)]
    #[allow(dead_code)]
    scratch: u8,
}

#[derive(Serialize)]
struct Empty {}

#[derive(Serialize)]
struct Tree {
    leaf: Leaf,
    boxed: Box<Leaf>,
    shared: Arc<Leaf>,
    borrowed: &'static str,
    only_skipped: OnlySkipped,
    empty: Empty,
    leaves: Vec<Leaf>,
}

fn leaf(id: i64, name: Option<&str>) -> Leaf {
    Leaf {
        id,
        scratch: vec![1, 2, 3],
        name: name.map(str::to_string),
        absent: None,
    }
}

#[test]
fn nested_structs_skip_fields_and_options() {
    let tree = Tree {
        leaf: leaf(-7, Some("a")),
        boxed: Box::new(leaf(0, None)),
        shared: Arc::new(leaf(7, Some(""))),
        borrowed: "b",
        only_skipped: OnlySkipped { scratch: 9 },
        empty: Empty {},
        leaves: vec![leaf(1, None), leaf(2, Some("two"))],
    };
    check(&tree, TREE);
    check(
        &Some(leaf(3, None)),
        r#"{"id":3,"name":null,"absent":null}"#,
    );
    check(&None::<Leaf>, "null");
    check(&Some(Some(5u8)), "5");
}

#[test]
fn floats_widen_and_keep_their_point() {
    let f32s = [
        0.1f32,
        1.0,
        -0.0,
        f32::NAN,
        f32::INFINITY,
        1e21,
        1e-7,
        f32::MAX,
        f32::MIN_POSITIVE,
        16_777_216.0,
    ];
    check(&f32s, F32S);
    let f64s = vec![
        0.1f64,
        1.0,
        -0.0,
        f64::NAN,
        f64::NEG_INFINITY,
        1e21,
        1e16,
        1e15,
        1e-7,
        f64::MAX,
        5e-324,
        0.30000000000000004,
        -123456.789,
    ];
    check(&f64s, F64S);
}

#[test]
fn integers_are_unsigned_unless_negative() {
    check(
        &(i64::MIN, -1i8, u64::MAX),
        "[-9223372036854775808,-1,18446744073709551615]",
    );
    check(
        &(u8::MAX, i16::MIN, usize::MAX),
        "[255,-32768,18446744073709551615]",
    );
    check(&(isize::MIN, i64::MAX, 0i32), INTS);
    check(&[true, false], "[true,false]");
}

#[test]
fn strings_escape_only_what_json_requires() {
    let strings = vec![
        String::new(),
        "plain".to_string(),
        "quote\" backslash\\ slash/".to_string(),
        "\n\r\t".to_string(),
        "\u{0}\u{1}\u{8}\u{b}\u{c}\u{1f}\u{20}\u{7f}".to_string(),
        "héllo 東京 🦀 \u{80}\u{2028}".to_string(),
        "\\u0041 stays text".to_string(),
        "trailing\\".to_string(),
        "\"".to_string(),
    ];
    check(&strings, STRINGS);
    check("a\tb", r#""a\tb""#);
    check(&('x', '"', '\n'), r#"["x","\"","\n"]"#);
    check(&('é', '\u{1}'), CHARS);
}

#[test]
fn hash_maps_sort_keys_as_strings_and_btree_maps_keep_key_order() {
    let by_int: HashMap<u32, &str> = [(2, "two"), (10, "ten"), (1, "one")].into_iter().collect();
    check(&by_int, r#"{"1":"one","10":"ten","2":"two"}"#);
    let ordered: BTreeMap<u32, bool> = [(2, true), (10, false)].into_iter().collect();
    check(&ordered, r#"{"2":true,"10":false}"#);
    let signed: BTreeMap<i64, u8> = [(-3, 0), (4, 1)].into_iter().collect();
    check(&signed, r#"{"-3":0,"4":1}"#);
    let by_name: HashMap<String, Vec<f32>> = [
        ("é\"k\\".to_string(), vec![0.5]),
        ("a\nb".to_string(), vec![]),
        ("Z".to_string(), vec![1.0, 2.0]),
        ("\u{1f}".to_string(), vec![]),
    ]
    .into_iter()
    .collect();
    check(&by_name, KEYS);
    check(&HashMap::<String, u8>::new(), "{}");
    check(&BTreeMap::<String, u8>::new(), "{}");
}

#[test]
fn tuples_arrays_slices_and_vectors_are_arrays() {
    check(&(1u8,), "[1]");
    check(&(1u8, "b"), r#"[1,"b"]"#);
    check(&(1u8, "b", None::<u8>), r#"[1,"b",null]"#);
    check(&[[1u16, 2], [3, 4]], "[[1,2],[3,4]]");
    check(&[0u8; 0], "[]");
    check(&Vec::<String>::new(), "[]");
    check(&vec![vec![(1u8, 2.5f32)], vec![]][..], "[[[1,2.5]],[]]");
}

#[derive(Serialize)]
enum Shape {
    Unit,
    One(u32),
    OneTuple((u8, u8)),
    Pair(i8, String),
    Triple(Option<u8>, f32, Vec<Shape>),
    Rec { w: f32, label: String },
    Nested { child: Box<Shape> },
}

#[test]
fn enum_variants_are_a_name_or_a_one_key_object() {
    let shapes = vec![
        Shape::Unit,
        Shape::One(1),
        Shape::OneTuple((2, 3)),
        Shape::Pair(-1, "p".to_string()),
        Shape::Triple(None, 0.25, vec![Shape::Unit, Shape::One(9)]),
        Shape::Rec {
            w: 0.1,
            label: "l\"".to_string(),
        },
        Shape::Nested {
            child: Box::new(Shape::Nested {
                child: Box::new(Shape::Unit),
            }),
        },
    ];
    check(&shapes, SHAPES);
}

/// A schema is an object with one `attributes` array, whatever holds the
/// list in memory; these were captured at 12c6f2a, where `Schema` kept a
/// `Vec<String>`.
#[test]
fn schemas_and_search_hits_keep_their_bytes() {
    let odd = Schema::new(["say \"hi\"", "C:\\dir\\", "größe 東京", ""]);
    check(&odd, ODD_SCHEMA);
    check(&Schema::default(), r#"{"attributes":[]}"#);
    let hits = vec![
        SearchHit {
            table_index: 7,
            schema: odd,
            score: f64::from(0.7f32),
        },
        SearchHit {
            table_index: 0,
            schema: Schema::new(["id", "order_status"]),
            score: -0.0,
        },
    ];
    check(&hits, HITS);
}

#[test]
fn a_cell_arena_is_the_array_of_its_cells() {
    let cells = CellArena::from_values(&["1", "", "é\"", "line\nbreak", "\u{1}"]).unwrap();
    check(&cells, CELLS);
    check(&CellArena::new(), "[]");
    let same: Vec<&str> = cells.iter().collect();
    check(&same, CELLS);
}

const TREE: &str = "{\"leaf\":{\"id\":-7,\"name\":\"a\",\"absent\":null},\"boxed\":{\"id\":0,\"name\":null,\"absent\":null},\"shared\":{\"id\":7,\"name\":\"\",\"absent\":null},\"borrowed\":\"b\",\"only_skipped\":{},\"empty\":{},\"leaves\":[{\"id\":1,\"name\":null,\"absent\":null},{\"id\":2,\"name\":\"two\",\"absent\":null}]}";
const F32S: &str = "[0.10000000149011612,1.0,-0.0,null,null,1.0000000200408773e21,1.0000000116860974e-7,3.4028234663852886e38,1.1754943508222875e-38,16777216.0]";
const F64S: &str = "[0.1,1.0,-0.0,null,null,1e21,1e16,1000000000000000.0,1e-7,1.7976931348623157e308,5e-324,0.30000000000000004,-123456.789]";
const INTS: &str = "[-9223372036854775808,9223372036854775807,0]";
const STRINGS: &str = "[\"\",\"plain\",\"quote\\\" backslash\\\\ slash/\",\"\\n\\r\\t\",\"\\u0000\\u0001\\u0008\\u000b\\u000c\\u001f \u{7f}\",\"héllo 東京 🦀 \u{80}\u{2028}\",\"\\\\u0041 stays text\",\"trailing\\\\\",\"\\\"\"]";
const CHARS: &str = "[\"é\",\"\\u0001\"]";
const KEYS: &str = "{\"\\u001f\":[],\"Z\":[1.0,2.0],\"a\\nb\":[],\"é\\\"k\\\\\":[0.5]}";
const SHAPES: &str = "[\"Unit\",{\"One\":1},{\"OneTuple\":[2,3]},{\"Pair\":[-1,\"p\"]},{\"Triple\":[null,0.25,[\"Unit\",{\"One\":9}]]},{\"Rec\":{\"w\":0.10000000149011612,\"label\":\"l\\\"\"}},{\"Nested\":{\"child\":{\"Nested\":{\"child\":\"Unit\"}}}}]";
const ODD_SCHEMA: &str =
    "{\"attributes\":[\"say \\\"hi\\\"\",\"C:\\\\dir\\\\\",\"größe 東京\",\"\"]}";
const HITS: &str = "[{\"table_index\":7,\"schema\":{\"attributes\":[\"say \\\"hi\\\"\",\"C:\\\\dir\\\\\",\"größe 東京\",\"\"]},\"score\":0.699999988079071},{\"table_index\":0,\"schema\":{\"attributes\":[\"id\",\"order_status\"]},\"score\":-0.0}]";
const CELLS: &str = "[\"1\",\"\",\"é\\\"\",\"line\\nbreak\",\"\\u0001\"]";
