//! The domain-model registry.

use crate::names::{assoc, attr, class, derived};
use crate::{
    AssocDef, AssocId, AttrDef, AttrId, ClassDef, ClassId, DerivedDef, PathExpr, PathStep,
    ValueKind,
};
use serde::{Content, Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Errors raised when extending or querying a [`DomainModel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// A class, attribute, association or derived association with this name
    /// already exists.
    DuplicateName(String),
    /// The named element does not exist.
    Unknown(String),
    /// A rule references an association that does not exist.
    BadRule(String),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::DuplicateName(n) => write!(f, "duplicate name in domain model: {n}"),
            ModelError::Unknown(n) => write!(f, "unknown domain-model element: {n}"),
            ModelError::BadRule(n) => write!(f, "invalid derived-association rule: {n}"),
        }
    }
}

impl std::error::Error for ModelError {}

/// The registry of classes, attributes, associations and derived
/// associations.
///
/// A model starts from [`DomainModel::builtin`] (the SEMEX vocabulary) or
/// [`DomainModel::empty`] and grows monotonically: elements are added, never
/// removed, so ids handed out remain valid.
///
/// The serialized form is the four definition lists in id order. The name
/// maps are derived from them, so they are left out and rebuilt on decode;
/// older encodings that still carry the maps decode the same way (the
/// extra fields are ignored).
#[derive(Debug, Clone)]
pub struct DomainModel {
    classes: Vec<ClassDef>,
    attrs: Vec<AttrDef>,
    assocs: Vec<AssocDef>,
    deriveds: Vec<DerivedDef>,
    class_by_name: HashMap<String, ClassId>,
    attr_by_name: HashMap<String, AttrId>,
    assoc_by_name: HashMap<String, AssocId>,
    derived_by_name: HashMap<String, usize>,
}

impl Serialize for DomainModel {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            ("classes".to_owned(), self.classes.to_content()),
            ("attrs".to_owned(), self.attrs.to_content()),
            ("assocs".to_owned(), self.assocs.to_content()),
            ("deriveds".to_owned(), self.deriveds.to_content()),
        ])
    }
}

impl Deserialize for DomainModel {
    fn from_content(content: &Content) -> Result<Self, serde::Error> {
        let map = content
            .as_map()
            .ok_or_else(|| serde::Error::expected("map for struct DomainModel", content))?;
        let classes: Vec<ClassDef> = Deserialize::from_content(serde::field(map, "classes")?)?;
        let attrs: Vec<AttrDef> = Deserialize::from_content(serde::field(map, "attrs")?)?;
        let assocs: Vec<AssocDef> = Deserialize::from_content(serde::field(map, "assocs")?)?;
        let deriveds: Vec<DerivedDef> = Deserialize::from_content(serde::field(map, "deriveds")?)?;
        fn by_name<T>(
            names: impl Iterator<Item = String>,
            id: impl Fn(usize) -> T,
        ) -> HashMap<String, T> {
            names.enumerate().map(|(i, n)| (n, id(i))).collect()
        }
        Ok(DomainModel {
            class_by_name: by_name(classes.iter().map(|d| d.name.clone()), |i| {
                ClassId(i as u16)
            }),
            attr_by_name: by_name(attrs.iter().map(|d| d.name.clone()), |i| AttrId(i as u16)),
            assoc_by_name: by_name(assocs.iter().map(|d| d.name.clone()), |i| AssocId(i as u16)),
            derived_by_name: by_name(deriveds.iter().map(|d| d.name.clone()), |i| i),
            classes,
            attrs,
            assocs,
            deriveds,
        })
    }
}

impl Default for DomainModel {
    fn default() -> Self {
        Self::builtin()
    }
}

impl DomainModel {
    /// A model with no elements.
    pub fn empty() -> Self {
        DomainModel {
            classes: Vec::new(),
            attrs: Vec::new(),
            assocs: Vec::new(),
            deriveds: Vec::new(),
            class_by_name: HashMap::new(),
            attr_by_name: HashMap::new(),
            assoc_by_name: HashMap::new(),
            derived_by_name: HashMap::new(),
        }
    }

    /// Register a class. Fails on duplicate name.
    pub fn add_class(&mut self, def: ClassDef) -> Result<ClassId, ModelError> {
        if self.class_by_name.contains_key(&def.name) {
            return Err(ModelError::DuplicateName(def.name));
        }
        let id = ClassId(self.classes.len() as u16);
        self.class_by_name.insert(def.name.clone(), id);
        self.classes.push(def);
        Ok(id)
    }

    /// Register an attribute. Fails on duplicate name.
    pub fn add_attr(&mut self, def: AttrDef) -> Result<AttrId, ModelError> {
        if self.attr_by_name.contains_key(&def.name) {
            return Err(ModelError::DuplicateName(def.name));
        }
        let id = AttrId(self.attrs.len() as u16);
        self.attr_by_name.insert(def.name.clone(), id);
        self.attrs.push(def);
        Ok(id)
    }

    /// Register an association. Fails on duplicate name or unknown classes.
    pub fn add_assoc(&mut self, def: AssocDef) -> Result<AssocId, ModelError> {
        if self.assoc_by_name.contains_key(&def.name) {
            return Err(ModelError::DuplicateName(def.name));
        }
        if def.domain.index() >= self.classes.len() || def.range.index() >= self.classes.len() {
            return Err(ModelError::Unknown(def.name));
        }
        let id = AssocId(self.assocs.len() as u16);
        self.assoc_by_name.insert(def.name.clone(), id);
        self.assocs.push(def);
        Ok(id)
    }

    /// Register a derived association. Fails on duplicate name or if the rule
    /// mentions an unknown association.
    pub fn add_derived(&mut self, def: DerivedDef) -> Result<(), ModelError> {
        if self.derived_by_name.contains_key(&def.name)
            || self.assoc_by_name.contains_key(&def.name)
        {
            return Err(ModelError::DuplicateName(def.name));
        }
        for a in def.rule.assocs() {
            if a.index() >= self.assocs.len() {
                return Err(ModelError::BadRule(def.name));
            }
        }
        self.derived_by_name
            .insert(def.name.clone(), self.deriveds.len());
        self.deriveds.push(def);
        Ok(())
    }

    /// Look up a class by name.
    pub fn class(&self, name: &str) -> Option<ClassId> {
        self.class_by_name.get(name).copied()
    }

    /// Look up a class by name, erroring when absent.
    pub fn class_req(&self, name: &str) -> Result<ClassId, ModelError> {
        self.class(name)
            .ok_or_else(|| ModelError::Unknown(name.to_owned()))
    }

    /// Look up an attribute by name.
    pub fn attr(&self, name: &str) -> Option<AttrId> {
        self.attr_by_name.get(name).copied()
    }

    /// Look up an attribute by name, erroring when absent.
    pub fn attr_req(&self, name: &str) -> Result<AttrId, ModelError> {
        self.attr(name)
            .ok_or_else(|| ModelError::Unknown(name.to_owned()))
    }

    /// Look up an association by name.
    pub fn assoc(&self, name: &str) -> Option<AssocId> {
        self.assoc_by_name.get(name).copied()
    }

    /// Look up an association by name, erroring when absent.
    pub fn assoc_req(&self, name: &str) -> Result<AssocId, ModelError> {
        self.assoc(name)
            .ok_or_else(|| ModelError::Unknown(name.to_owned()))
    }

    /// The definition of a class.
    pub fn class_def(&self, id: ClassId) -> &ClassDef {
        &self.classes[id.index()]
    }

    /// The definition of an attribute.
    pub fn attr_def(&self, id: AttrId) -> &AttrDef {
        &self.attrs[id.index()]
    }

    /// The definition of an association.
    pub fn assoc_def(&self, id: AssocId) -> &AssocDef {
        &self.assocs[id.index()]
    }

    /// The definition of a derived association, by name.
    pub fn derived(&self, name: &str) -> Option<&DerivedDef> {
        self.derived_by_name.get(name).map(|&i| &self.deriveds[i])
    }

    /// All classes, in id order.
    pub fn classes(&self) -> impl Iterator<Item = (ClassId, &ClassDef)> {
        self.classes
            .iter()
            .enumerate()
            .map(|(i, d)| (ClassId(i as u16), d))
    }

    /// All attributes, in id order.
    pub fn attrs(&self) -> impl Iterator<Item = (AttrId, &AttrDef)> {
        self.attrs
            .iter()
            .enumerate()
            .map(|(i, d)| (AttrId(i as u16), d))
    }

    /// All associations, in id order.
    pub fn assocs(&self) -> impl Iterator<Item = (AssocId, &AssocDef)> {
        self.assocs
            .iter()
            .enumerate()
            .map(|(i, d)| (AssocId(i as u16), d))
    }

    /// All derived associations.
    pub fn deriveds(&self) -> impl Iterator<Item = &DerivedDef> {
        self.deriveds.iter()
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Number of associations.
    pub fn assoc_count(&self) -> usize {
        self.assocs.len()
    }

    /// Number of attributes.
    pub fn attr_count(&self) -> usize {
        self.attrs.len()
    }

    /// The built-in SEMEX vocabulary: the classes, attributes, associations
    /// and derived associations described in the paper's domain model.
    pub fn builtin() -> Self {
        let mut m = DomainModel::empty();

        // Attributes ----------------------------------------------------
        let a_name = m
            .add_attr(AttrDef::new(attr::NAME, ValueKind::Str))
            .unwrap();
        let a_first = m
            .add_attr(AttrDef::new(attr::FIRST_NAME, ValueKind::Str))
            .unwrap();
        let a_last = m
            .add_attr(AttrDef::new(attr::LAST_NAME, ValueKind::Str))
            .unwrap();
        let a_email = m
            .add_attr(AttrDef::new(attr::EMAIL, ValueKind::Str))
            .unwrap();
        let a_phone = m
            .add_attr(AttrDef::new(attr::PHONE, ValueKind::Str).unindexed())
            .unwrap();
        let a_title = m
            .add_attr(AttrDef::new(attr::TITLE, ValueKind::Str))
            .unwrap();
        let a_subject = m
            .add_attr(AttrDef::new(attr::SUBJECT, ValueKind::Str))
            .unwrap();
        let a_body = m
            .add_attr(AttrDef::new(attr::BODY, ValueKind::Str))
            .unwrap();
        let a_date = m
            .add_attr(AttrDef::new(attr::DATE, ValueKind::Date))
            .unwrap();
        let a_year = m
            .add_attr(AttrDef::new(attr::YEAR, ValueKind::Int))
            .unwrap();
        let a_pages = m
            .add_attr(AttrDef::new(attr::PAGES, ValueKind::Str).unindexed())
            .unwrap();
        let a_path = m
            .add_attr(AttrDef::new(attr::PATH, ValueKind::Str))
            .unwrap();
        let a_ext = m
            .add_attr(AttrDef::new(attr::EXTENSION, ValueKind::Str).unindexed())
            .unwrap();
        let a_url = m.add_attr(AttrDef::new(attr::URL, ValueKind::Str)).unwrap();
        let a_mid = m
            .add_attr(AttrDef::new(attr::MESSAGE_ID, ValueKind::Str).unindexed())
            .unwrap();
        let a_loc = m
            .add_attr(AttrDef::new(attr::LOCATION, ValueKind::Str))
            .unwrap();
        let a_abbr = m
            .add_attr(AttrDef::new(attr::ABBREVIATION, ValueKind::Str))
            .unwrap();

        // Classes -------------------------------------------------------
        let person = m
            .add_class(
                ClassDef::new(class::PERSON)
                    .with_attrs(vec![a_name, a_first, a_last, a_email, a_phone])
                    .with_label(a_name)
                    .reconcilable(),
            )
            .unwrap();
        let message = m
            .add_class(
                ClassDef::new(class::MESSAGE)
                    .with_attrs(vec![a_subject, a_date, a_body, a_mid])
                    .with_label(a_subject),
            )
            .unwrap();
        let publication = m
            .add_class(
                ClassDef::new(class::PUBLICATION)
                    .with_attrs(vec![a_title, a_year, a_pages])
                    .with_label(a_title)
                    .reconcilable(),
            )
            .unwrap();
        let venue = m
            .add_class(
                ClassDef::new(class::VENUE)
                    .with_attrs(vec![a_name, a_abbr])
                    .with_label(a_name)
                    .reconcilable(),
            )
            .unwrap();
        let organization = m
            .add_class(
                ClassDef::new(class::ORGANIZATION)
                    .with_attrs(vec![a_name, a_url])
                    .with_label(a_name)
                    .reconcilable(),
            )
            .unwrap();
        let file = m
            .add_class(
                ClassDef::new(class::FILE)
                    .with_attrs(vec![a_name, a_path, a_ext, a_date])
                    .with_label(a_name),
            )
            .unwrap();
        let folder = m
            .add_class(
                ClassDef::new(class::FOLDER)
                    .with_attrs(vec![a_name, a_path])
                    .with_label(a_name),
            )
            .unwrap();
        let event = m
            .add_class(
                ClassDef::new(class::EVENT)
                    .with_attrs(vec![a_title, a_date, a_loc])
                    .with_label(a_title),
            )
            .unwrap();
        let project = m
            .add_class(
                ClassDef::new(class::PROJECT)
                    .with_attrs(vec![a_name])
                    .with_label(a_name),
            )
            .unwrap();
        let web_page = m
            .add_class(
                ClassDef::new(class::WEB_PAGE)
                    .with_attrs(vec![a_title, a_url])
                    .with_label(a_title),
            )
            .unwrap();

        // Associations ----------------------------------------------------
        let sender = m
            .add_assoc(AssocDef::new(assoc::SENDER, message, person, "SenderOf"))
            .unwrap();
        let recipient = m
            .add_assoc(AssocDef::new(
                assoc::RECIPIENT,
                message,
                person,
                "RecipientOf",
            ))
            .unwrap();
        let _cc = m
            .add_assoc(AssocDef::new(
                assoc::CC_RECIPIENT,
                message,
                person,
                "CcRecipientOf",
            ))
            .unwrap();
        let _replied = m
            .add_assoc(
                AssocDef::new(assoc::REPLIED_TO, message, message, "RepliedBy")
                    .without_recon_evidence(),
            )
            .unwrap();
        let _attached = m
            .add_assoc(AssocDef::new(
                assoc::ATTACHED_TO,
                file,
                message,
                "HasAttachment",
            ))
            .unwrap();
        let authored_by = m
            .add_assoc(AssocDef::new(
                assoc::AUTHORED_BY,
                publication,
                person,
                "AuthorOf",
            ))
            .unwrap();
        let _published_in = m
            .add_assoc(AssocDef::new(
                assoc::PUBLISHED_IN,
                publication,
                venue,
                "Published",
            ))
            .unwrap();
        let cites = m
            .add_assoc(AssocDef::new(
                assoc::CITES,
                publication,
                publication,
                "CitedBy",
            ))
            .unwrap();
        let works_for = m
            .add_assoc(AssocDef::new(
                assoc::WORKS_FOR,
                person,
                organization,
                "Employs",
            ))
            .unwrap();
        let _member_of = m
            .add_assoc(AssocDef::new(
                assoc::MEMBER_OF,
                person,
                project,
                "HasMember",
            ))
            .unwrap();
        let _in_folder = m
            .add_assoc(
                AssocDef::new(assoc::IN_FOLDER, file, folder, "Contains").without_recon_evidence(),
            )
            .unwrap();
        let _subfolder = m
            .add_assoc(
                AssocDef::new(assoc::SUBFOLDER_OF, folder, folder, "HasSubfolder")
                    .without_recon_evidence(),
            )
            .unwrap();
        let _described_by = m
            .add_assoc(AssocDef::new(
                assoc::DESCRIBED_BY,
                publication,
                file,
                "Describes",
            ))
            .unwrap();
        let _mentions = m
            .add_assoc(AssocDef::new(assoc::MENTIONS, file, person, "MentionedIn"))
            .unwrap();
        let attendee = m
            .add_assoc(AssocDef::new(assoc::ATTENDEE, event, person, "Attends"))
            .unwrap();
        let _organized_by = m
            .add_assoc(AssocDef::new(
                assoc::ORGANIZED_BY,
                event,
                person,
                "Organizes",
            ))
            .unwrap();
        let _links_to = m
            .add_assoc(
                AssocDef::new(assoc::LINKS_TO, web_page, web_page, "LinkedFrom")
                    .without_recon_evidence(),
            )
            .unwrap();
        let _page_mentions = m
            .add_assoc(AssocDef::new(
                assoc::PAGE_MENTIONS,
                web_page,
                person,
                "MentionedOnPage",
            ))
            .unwrap();

        // Derived associations -------------------------------------------
        m.add_derived(DerivedDef::new(
            derived::CO_AUTHOR,
            person,
            person,
            PathExpr::share_subject(authored_by),
        ))
        .unwrap();
        m.add_derived(DerivedDef::new(
            derived::CORRESPONDED_WITH,
            person,
            person,
            PathExpr::Union(vec![
                PathExpr::path(vec![
                    PathStep::Inverse(sender),
                    PathStep::Forward(recipient),
                ]),
                PathExpr::path(vec![
                    PathStep::Inverse(recipient),
                    PathStep::Forward(sender),
                ]),
            ]),
        ))
        .unwrap();
        m.add_derived(DerivedDef::new(
            derived::COLLEAGUE,
            person,
            person,
            PathExpr::path(vec![
                PathStep::Forward(works_for),
                PathStep::Inverse(works_for),
            ]),
        ))
        .unwrap();
        m.add_derived(DerivedDef::new(
            derived::CITED_AUTHOR,
            publication,
            person,
            PathExpr::path(vec![
                PathStep::Forward(cites),
                PathStep::Forward(authored_by),
            ]),
        ))
        .unwrap();
        m.add_derived(DerivedDef::new(
            derived::CO_ATTENDEE,
            person,
            person,
            PathExpr::share_subject(attendee),
        ))
        .unwrap();

        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_has_expected_vocabulary() {
        let m = DomainModel::builtin();
        assert_eq!(m.class_count(), 10);
        assert!(m.class(class::PERSON).is_some());
        assert!(m.class(class::PUBLICATION).is_some());
        assert!(m.assoc(assoc::AUTHORED_BY).is_some());
        assert!(m.derived(derived::CO_AUTHOR).is_some());
        let person = m.class(class::PERSON).unwrap();
        assert!(m.class_def(person).reconcilable);
        let message = m.class(class::MESSAGE).unwrap();
        assert!(!m.class_def(message).reconcilable);
    }

    #[test]
    fn builtin_association_signatures() {
        let m = DomainModel::builtin();
        let authored = m.assoc(assoc::AUTHORED_BY).unwrap();
        let def = m.assoc_def(authored);
        assert_eq!(def.domain, m.class(class::PUBLICATION).unwrap());
        assert_eq!(def.range, m.class(class::PERSON).unwrap());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut m = DomainModel::builtin();
        assert_eq!(
            m.add_class(ClassDef::new(class::PERSON)),
            Err(ModelError::DuplicateName(class::PERSON.to_owned()))
        );
        assert_eq!(
            m.add_attr(AttrDef::new(attr::NAME, ValueKind::Str)),
            Err(ModelError::DuplicateName(attr::NAME.to_owned()))
        );
    }

    #[test]
    fn malleable_extension() {
        let mut m = DomainModel::builtin();
        let a = m.add_attr(AttrDef::new("isbn", ValueKind::Str)).unwrap();
        let book = m
            .add_class(ClassDef::new("Book").with_attrs(vec![a]).reconcilable())
            .unwrap();
        let person = m.class(class::PERSON).unwrap();
        let wrote = m
            .add_assoc(AssocDef::new("WrittenBy", book, person, "WroteBook"))
            .unwrap();
        m.add_derived(DerivedDef::new(
            "CoBookAuthor",
            person,
            person,
            PathExpr::share_subject(wrote),
        ))
        .unwrap();
        assert_eq!(m.class("Book"), Some(book));
        assert!(m.derived("CoBookAuthor").is_some());
    }

    #[test]
    fn bad_rule_rejected() {
        let mut m = DomainModel::builtin();
        let person = m.class(class::PERSON).unwrap();
        let err = m.add_derived(DerivedDef::new(
            "Broken",
            person,
            person,
            PathExpr::share_subject(AssocId(999)),
        ));
        assert_eq!(err, Err(ModelError::BadRule("Broken".to_owned())));
    }

    #[test]
    fn assoc_with_unknown_class_rejected() {
        let mut m = DomainModel::empty();
        let err = m.add_assoc(AssocDef::new("X", ClassId(0), ClassId(1), "Y"));
        assert!(matches!(err, Err(ModelError::Unknown(_))));
    }

    #[test]
    fn lookup_req_errors() {
        let m = DomainModel::builtin();
        assert!(m.class_req("Nope").is_err());
        assert!(m.attr_req("nope").is_err());
        assert!(m.assoc_req("Nope").is_err());
        assert!(m.class_req(class::PERSON).is_ok());
    }

    #[test]
    fn iterators_cover_everything() {
        let m = DomainModel::builtin();
        assert_eq!(m.classes().count(), m.class_count());
        assert_eq!(m.assocs().count(), m.assoc_count());
        assert_eq!(m.attrs().count(), m.attr_count());
        assert_eq!(m.deriveds().count(), 5);
    }
}
