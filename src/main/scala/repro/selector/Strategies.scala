package repro.selector

import repro.util.Rng
import scala.collection.mutable

/** Train on all (new) data — the paper's `NewDataStrategy`, whose policy
  * logic is a single line (§5.2, pipeline 1): yield everything the backend
  * has, with weight 1. With `resetAfterTrigger` the backend only holds the
  * data since the last trigger, so this trains on each trigger's new data;
  * without it, on the full history.
  */
final class NewDataStrategy(ctx: SelectorContext, resetAfterTrigger: Boolean,
                            limit: Option[Int] = None)
    extends AbstractSelectionStrategy(ctx, resetAfterTrigger, limit) {

  override protected def select(triggerId: Int): IndexedSeq[SelectedSample] =
    ctx.backend.scanAll().map(s => SelectedSample(s.key, 1.0))
}

/** Uniform random presampling (§5.2, pipeline 2): keep a `fraction` (or at
  * most `maxSamples`) of the candidate pool, chosen by ordering on a
  * deterministic per-(key, trigger) hash.
  */
final class UniformRandomStrategy(ctx: SelectorContext, resetAfterTrigger: Boolean,
                                  fraction: Option[Double] = None,
                                  maxSamples: Option[Int] = None)
    extends AbstractSelectionStrategy(ctx, resetAfterTrigger, None) {
  require(fraction.nonEmpty || maxSamples.nonEmpty, "need fraction or maxSamples")
  fraction.foreach(f => require(f > 0 && f <= 1.0, s"fraction must be in (0,1], got $f"))

  private def targetCount(n: Long): Int = {
    val byFraction = fraction.map(f => math.ceil(f * n).toLong).getOrElse(n)
    math.min(byFraction, maxSamples.map(_.toLong).getOrElse(Long.MaxValue)).toInt
  }

  override protected def select(triggerId: Int): IndexedSeq[SelectedSample] = {
    val pool = ctx.backend.scanAll()
    pool.sortBy(s => (orderHash(s.key, triggerId), s.key))
      .take(targetCount(pool.length))
      .map(s => SelectedSample(s.key, 1.0))
  }
}

/** Balanced presampling over some column (§4.1.2): the developer "inherits
  * from the AbstractBalancedStrategy and specifies the column to balance
  * on". Each group contributes an equal quota — `limit / numGroups` when a
  * limit is set, else the smallest group's size — with members chosen by
  * the deterministic hash order.
  */
abstract class AbstractBalancedStrategy(ctx: SelectorContext, resetAfterTrigger: Boolean,
                                        limit: Option[Int])
    extends AbstractSelectionStrategy(ctx, resetAfterTrigger, None) {

  /** The value of a sample to balance on: its label or its arrival trigger. */
  protected def groupOf(s: SeenSample): Long

  override protected def select(triggerId: Int): IndexedSeq[SelectedSample] = {
    val groups = ctx.backend.scanAll().groupBy(groupOf)
    if (groups.isEmpty) return IndexedSeq.empty
    val quota = limit.map(_ / groups.size).getOrElse(groups.values.map(_.size).min)
    groups.values.toIndexedSeq
      .flatMap(_.sortBy(s => (orderHash(s.key, triggerId), s.key)).take(quota))
      .sortBy(_.key)
      .map(s => SelectedSample(s.key, 1.0))
  }
}

/** Equal share per label (class-balanced presampling). */
final class LabelBalancedStrategy(ctx: SelectorContext, resetAfterTrigger: Boolean,
                                  limit: Option[Int] = None)
    extends AbstractBalancedStrategy(ctx, resetAfterTrigger, limit) {
  override protected def groupOf(s: SeenSample): Long = s.label
}

/** Equal share per trigger in which samples arrived. Only meaningful without
  * reset-after-trigger (otherwise a single trigger group remains).
  */
final class TriggerBalancedStrategy(ctx: SelectorContext, resetAfterTrigger: Boolean,
                                    limit: Option[Int] = None)
    extends AbstractBalancedStrategy(ctx, resetAfterTrigger, limit) {
  override protected def groupOf(s: SeenSample): Long = s.seenInTrigger.toLong
}

/** GDumb (Prabhu et al., ECCV'20) as the paper's example *online*
  * presampling policy (§4.1.2): a fixed-size, class-balanced memory
  * maintained as data streams in. A new sample is admitted if the memory
  * has room, or if its class is smaller than the currently largest class —
  * in which case a (hash-deterministic) member of the largest class is
  * evicted. On trigger, the training set is the memory's contents.
  */
final class GDumbStrategy(ctx: SelectorContext, val memorySize: Int,
                          resetAfterTrigger: Boolean = false)
    extends AbstractSelectionStrategy(ctx, resetAfterTrigger, None) {
  require(memorySize > 0, "memorySize must be positive")

  private val memory = mutable.Map.empty[Long, mutable.ArrayBuffer[Long]] // label -> keys
  private var total  = 0

  /** Online policy: state lives in memory, not in the backend. */
  override def inform(samples: Seq[NewSample]): Unit = samples.foreach { s =>
    val bucket = memory.getOrElseUpdate(s.label, mutable.ArrayBuffer.empty)
    if (total < memorySize) {
      bucket += s.key; total += 1
    } else {
      val (bigLabel, bigBucket) = memory.maxBy { case (l, b) => (b.size, -l) }
      if (bucket.size < bigBucket.size) {
        // Deterministic stand-in for GDumb's random eviction.
        val evictIdx = bigBucket.indices.maxBy(i => Rng.mix2(bigBucket(i), ctx.seed ^ bigLabel))
        bigBucket.remove(evictIdx)
        bucket += s.key
      } // else: memory balanced and full — drop the sample.
    }
  }

  /** Current memory occupancy per label (exposed for tests/inspection). */
  def memoryCounts: Map[Long, Int] = memory.map { case (l, b) => l -> b.size }.toMap

  override protected def select(triggerId: Int): IndexedSeq[SelectedSample] =
    memory.toIndexedSeq.sortBy(_._1)
      .flatMap(_._2.sorted)
      .map(SelectedSample(_, 1.0))

  override protected def resetState(): Unit = { memory.clear(); total = 0 }
}

/** The paper's general-purpose `CoresetStrategy`: an offline/online
  * presampling policy combined with a downsampling policy that the trainer
  * executes on the presampled trigger training set (§4.1.2, Fig. 3).
  */
final class CoresetStrategy(presampler: SelectionStrategy,
                            downsamplingConfig: DownsamplingConfig)
    extends SelectionStrategy {
  override def inform(samples: Seq[NewSample]): Unit = presampler.inform(samples)
  override def onTrigger(): TriggerTrainingSet      = presampler.onTrigger()
  override def downsampling: Option[DownsamplingConfig] = Some(downsamplingConfig)
  override def nextTriggerId: Int                    = presampler.nextTriggerId
  override def seekTrigger(triggerId: Int): Unit     = presampler.seekTrigger(triggerId)
}

/** Per-trigger policy switching (§4.1.2): e.g. train on all data first,
  * sample on later triggers. `schedule` maps a starting trigger id to the
  * strategy active from that trigger on; entries must start at 0.
  */
final class PolicyScheduler(schedule: Seq[(Int, SelectionStrategy)]) extends SelectionStrategy {
  require(schedule.nonEmpty && schedule.map(_._1).min == 0,
    "schedule must be non-empty and cover trigger 0")
  private val sorted  = schedule.sortBy(_._1)
  private var trigger = 0
  // The strategy that produced the latest trigger training set; the
  // trainer reads its downsampling after `onTrigger` advanced `trigger`.
  private var served: Option[SelectionStrategy] = None

  private def active: SelectionStrategy =
    sorted.takeWhile(_._1 <= trigger).last._2

  override def inform(samples: Seq[NewSample]): Unit = {
    val a = active
    a.seekTrigger(trigger)
    a.inform(samples)
  }

  override def onTrigger(): TriggerTrainingSet = {
    val a = active
    a.seekTrigger(trigger)
    val tts = a.onTrigger()
    served = Some(a)
    trigger += 1
    tts
  }

  override def downsampling: Option[DownsamplingConfig] =
    served.getOrElse(active).downsampling
  override def nextTriggerId: Int = trigger
  override def seekTrigger(triggerId: Int): Unit = { trigger = triggerId }
}
