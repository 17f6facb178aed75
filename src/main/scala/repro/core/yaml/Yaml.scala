package repro.core.yaml

import org.snakeyaml.engine.v2.api.{Load, LoadSettings}
import org.snakeyaml.engine.v2.exceptions.YamlEngineException
import org.snakeyaml.engine.v2.schema.CoreSchema

import scala.jdk.CollectionConverters._

/** Parsed YAML value. */
sealed trait YamlValue {
  /** Navigate a map key; throws with a path-aware message when absent. */
  def apply(key: String): YamlValue = this match {
    case YamlMap(m) => m.getOrElse(key, throw new NoSuchElementException(s"missing key '$key'"))
    case other      => throw new IllegalArgumentException(s"expected map for key '$key', got $other")
  }
  def get(key: String): Option[YamlValue] = this match {
    case YamlMap(m) => m.get(key)
    case _          => None
  }
  def str: String = this match {
    case YamlStr(s)  => s
    case YamlNum(n)  => if (n.isWhole) n.toBigInt.toString else n.toDouble.toString
    case YamlBool(b) => b.toString
    case other       => throw new IllegalArgumentException(s"expected string, got $other")
  }
  def num: Double = this match {
    case YamlNum(n) => n.toDouble
    case YamlStr(s) => s.toDouble
    case other      => throw new IllegalArgumentException(s"expected number, got $other")
  }
  /** The exact value of an integral number; a fractional or out-of-range one is refused. */
  def int: Int   = integral("an Int", _.isValidInt).toInt
  def long: Long = integral("a Long", _.isValidLong).toLong
  private def integral(what: String, fits: BigDecimal => Boolean): BigDecimal = {
    val n = this match {
      case YamlNum(n) => n
      case YamlStr(s) => BigDecimal(s)
      case other      => throw new IllegalArgumentException(s"expected number, got $other")
    }
    if (fits(n)) n else throw new IllegalArgumentException(s"expected an integer that fits $what, got $n")
  }
  def bool: Boolean = this match {
    case YamlBool(b) => b
    case other       => throw new IllegalArgumentException(s"expected bool, got $other")
  }
  def list: Seq[YamlValue] = this match {
    case YamlList(xs) => xs
    case other        => throw new IllegalArgumentException(s"expected list, got $other")
  }
  def map: Map[String, YamlValue] = this match {
    case YamlMap(m) => m
    case other      => throw new IllegalArgumentException(s"expected map, got $other")
  }
}
final case class YamlMap(values: Map[String, YamlValue])  extends YamlValue
final case class YamlList(values: Seq[YamlValue])         extends YamlValue
final case class YamlStr(value: String)                   extends YamlValue
/** A number exactly as written: integers of any size, and floats at their shortest decimal. */
final case class YamlNum(value: BigDecimal)               extends YamlValue
final case class YamlBool(value: Boolean)                 extends YamlValue
case object YamlNull                                      extends YamlValue

/** Reads a Modyn pipeline file (§3.5) with SnakeYAML Engine, under YAML 1.2
  * core-schema semantics: `True` is a bool, `1e-4` a float, `yes` a string
  * and `~` null. Duplicate keys and syntax errors fail with [[IllegalArgumentException]].
  */
object Yaml {

  private val settings =
    LoadSettings.builder().setSchema(new CoreSchema()).setAllowDuplicateKeys(false).build()

  def parse(text: String): YamlValue =
    try convert(new Load(settings).loadFromString(text))
    catch { case e: YamlEngineException => throw new IllegalArgumentException(e.getMessage, e) }

  private def convert(v: Any): YamlValue = v match {
    case null                   => YamlNull
    case m: java.util.Map[_, _] => YamlMap(m.asScala.map { case (k, x) => convert(k).str -> convert(x) }.toMap)
    case l: java.util.List[_]   => YamlList(l.asScala.map(convert).toVector)
    case b: java.lang.Boolean   => YamlBool(b)
    case d: java.lang.Double if d.isNaN || d.isInfinite =>
      throw new IllegalArgumentException(s"unsupported YAML number $d")
    case n: java.lang.Number    => YamlNum(BigDecimal(n.toString))
    case s: String              => YamlStr(s)
    case other                  => throw new IllegalArgumentException(s"unsupported YAML value $other")
  }
}
