package repro.core.yaml

import org.scalatest.funsuite.AnyFunSuite

class MiniYamlSpec extends AnyFunSuite {

  test("flat map of scalars") {
    val y = Yaml.parse("a: 1\nb: hello\nc: true\nd: 1.5\n")
    assert(y("a").int == 1)
    assert(y("b").str == "hello")
    assert(y("c").bool)
    assert(y("d").num == 1.5)
  }

  test("nested maps by indentation") {
    val y = Yaml.parse(
      """model:
        |  id: ResNet18
        |  config:
        |    num_classes: 42
        |""".stripMargin)
    assert(y("model")("id").str == "ResNet18")
    assert(y("model")("config")("num_classes").int == 42)
  }

  test("quoted strings keep content, lose quotes") {
    val y = Yaml.parse("a: \"x: y\"\nb: 'single'\n")
    assert(y("a").str == "x: y")
    assert(y("b").str == "single")
  }

  test("inline lists") {
    val y = Yaml.parse("xs: [1, 2, 3]\nys: [\"a\", \"b\"]\nzs: []\n")
    assert(y("xs").list.map(_.int) == Seq(1, 2, 3))
    assert(y("ys").list.map(_.str) == Seq("a", "b"))
    assert(y("zs").list.isEmpty)
  }

  test("inline list with nested commas in quotes") {
    val y = Yaml.parse("""ts: ["transforms.Normalize((0.1, 0.2))", "x"]""" + "\n")
    assert(y("ts").list.map(_.str) == Seq("transforms.Normalize((0.1, 0.2))", "x"))
  }

  test("block lists of scalars") {
    val y = Yaml.parse("xs:\n  - 1\n  - 2\n  - foo\n")
    assert(y("xs").list.map(_.str) == Seq("1", "2", "foo"))
  }

  test("block list of maps") {
    val y = Yaml.parse(
      """opts:
        |  - name: a
        |    lr: 0.1
        |  - name: b
        |    lr: 0.2
        |""".stripMargin)
    val opts = y("opts").list
    assert(opts.size == 2)
    assert(opts(0)("name").str == "a" && opts(0)("lr").num == 0.1)
    assert(opts(1)("name").str == "b" && opts(1)("lr").num == 0.2)
  }

  test("literal block keeps lines and relative indentation") {
    val y = Yaml.parse(
      """fn: |
        |  def f(x):
        |      return x
        |next: 1
        |""".stripMargin)
    // YAML's `|` keeps the block's final line break ("clip" chomping).
    assert(y("fn").str == "def f(x):\n    return x\n")
    assert(y("next").int == 1)
  }

  test("comments are stripped outside quotes") {
    val y = Yaml.parse("a: 1 # a comment\nb: \"keep # this\"\n# full line\nc: 2\n")
    assert(y("a").int == 1)
    assert(y("b").str == "keep # this")
    assert(y("c").int == 2)
  }

  test("null variants") {
    val y = Yaml.parse("a: null\nb: ~\nc:\n")
    assert(y("a") == YamlNull)
    assert(y("b") == YamlNull)
    assert(y("c") == YamlNull)
  }

  test("empty document parses to null") {
    assert(Yaml.parse("") == YamlNull)
    assert(Yaml.parse("\n  \n# only a comment\n") == YamlNull)
  }

  test("negative and scientific numbers") {
    val y = Yaml.parse("a: -3\nb: 1e-4\nc: -2.5\n")
    assert(y("a").int == -3)
    assert(y("b").num == 1e-4)
    assert(y("c").num == -2.5)
  }

  test("bare strings with colons in urls are kept intact") {
    val y = Yaml.parse("url: http://example.com/x\n")
    // "://"'s colon is not followed by a space, so it's part of the value.
    assert(y("url").str == "http://example.com/x")
  }

  test("get returns None for missing keys, apply throws") {
    val y = Yaml.parse("a: 1\n")
    assert(y.get("zzz").isEmpty)
    intercept[NoSuchElementException] { y("zzz") }
  }

  test("type accessors validate") {
    val y = Yaml.parse("a: hello\nxs: [1]\n")
    intercept[IllegalArgumentException] { y("a").bool }
    intercept[IllegalArgumentException] { y("a").list }
    intercept[IllegalArgumentException] { y("xs").str }
    intercept[IllegalArgumentException] { y("a").num }
  }

  test("deeply nested structure") {
    val y = Yaml.parse(
      """a:
        |  b:
        |    c:
        |      d: deep
        |e: top
        |""".stripMargin)
    assert(y("a")("b")("c")("d").str == "deep")
    assert(y("e").str == "top")
  }

  test("the Figure 2 pipeline excerpt parses") {
    val y = Yaml.parse(
      """model:
        |  id: ResNet18
        |  config:
        |    num_classes: 42
        |data:
        |  dataset_id: mnist
        |  transformations: ["transforms.Normalize(...)"]
        |  bytes_parser_function: |
        |    def bytes_parser_function(data: memoryview) -> Image:
        |      return Image.open(io.BytesIO(data)).convert("RGB")
        |trigger:
        |  id: DataAmountTrigger
        |  trigger_config:
        |    data_points_for_trigger: 100
        |training:
        |  use_previous_model: True
        |  batch_size: 1337
        |  selection_strategy:
        |    name: CoresetStrategy
        |    config:
        |      storage_backend: "database"
        |      reset_after_trigger: False
        |""".stripMargin)
    assert(y("model")("config")("num_classes").int == 42)
    assert(y("trigger")("trigger_config")("data_points_for_trigger").int == 100)
    assert(y("training")("use_previous_model").bool)
    assert(y("training")("batch_size").int == 1337)
    assert(y("training")("selection_strategy")("config")("storage_backend").str == "database")
    assert(!y("training")("selection_strategy")("config")("reset_after_trigger").bool)
    assert(y("data")("bytes_parser_function").str.startsWith("def bytes_parser_function"))
  }

  test("flow maps parse like block maps") {
    val y = Yaml.parse("opt: { lr: 0.025, momentum: 0.9, name: \"x, y\" }\n")
    assert(y("opt")("lr").num == 0.025 && y("opt")("momentum").num == 0.9)
    assert(y("opt")("name").str == "x, y")
  }

  test("YAML 1.2 core-schema scalars") {
    val y = Yaml.parse("a: yes\nb: on\nc: 010\nd: 2004-01-01\ne: FALSE\nf: 0.0001\n")
    assert(y("a") == YamlStr("yes") && y("b") == YamlStr("on"))
    assert(y("c").int == 10)
    assert(y("d") == YamlStr("2004-01-01"))
    assert(!y("e").bool)
    assert(y("f").num == 1e-4)
  }

  test("syntax errors and non-finite numbers are refused") {
    intercept[IllegalArgumentException](Yaml.parse("a: [1, 2\n"))
    intercept[IllegalArgumentException](Yaml.parse("a: .inf\n"))
  }
}
